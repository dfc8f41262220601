package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.dataflow.WorkerId
import repro.workflows.W2

class BenchSelfSpec extends AnyFunSuite {

  test("percentile: nearest rank, reported only with ten samples beyond it") {
    val xs = Array.tabulate(100)(i => (i + 1).toDouble).reverse
    assert(Stats.percentile(xs, 0.5).contains(50.0))
    assert(Stats.percentile(xs, 0.9).contains(90.0))
    assert(Stats.percentile(xs.take(99), 0.9).isEmpty) // 9 samples beyond rank 90
    assert(Stats.percentile(xs, 0.99).isEmpty)
    assert(Stats.percentile(Array.tabulate(1000)(_.toDouble), 0.99).contains(989.0))
    assert(Stats.percentile(Array.empty[Double], 0.5).isEmpty)
    assert(Stats.samplesNeeded(0.5) == 20)
    assert(Stats.samplesNeeded(0.9) == 100)
    assert(Stats.samplesNeeded(0.99) == 1000)
    assert(Stats.median(Seq(3.0, 1.0, 2.0, 10.0)) == 2.5)
  }

  test("sliced percentile: per time slice, then the median over slices") {
    // Three one-second slices of 20 samples; the middle one is slow.
    val times = Array.tabulate(60)(i => (i / 20) * 1_000_000_000L + (i % 20))
    val values = Array.tabulate(60)(i => if (i / 20 == 1) 100.0 + i % 20 else (i % 20).toDouble)
    val slices = Stats.slices(times, values, 0L, 3_000_000_000L, 3)
    assert(slices.map(_.length) == Seq(20, 20, 20))
    assert(Stats.slicedPercentile(slices, 0.5).contains(9.0)) // slices' p50s: 9, 109, 9
    assert(Stats.slicedPercentile(slices, 0.9).isEmpty) // 20 samples cannot back a p90
  }

  test("block percentile: per block of consecutive samples, then the median over blocks") {
    // 250 samples: two blocks of 125 back a p90. The second block is slow.
    val xs = Array.tabulate(250)(i => if (i < 125) i.toDouble else 1000.0 + i)
    assert(Stats.blockPercentile(xs, 0.9).contains((112.0 + 1237.0) / 2))
    // A p50 needs 20 samples: twelve blocks, six fast and six slow.
    assert(Stats.blockPercentile(xs, 0.5).exists(m => m > 124 && m < 1125))
    assert(Stats.blockPercentile(xs.take(99), 0.9).isEmpty)
    assert(Stats.blockPercentile(xs.take(100), 0.9) == Stats.percentile(xs.take(100), 0.9))
    // One burst among many blocks does not move the median.
    val burst = Array.tabulate(1000)(i => if (i >= 400 && i < 500) 1e6 else (i % 100).toDouble)
    assert(Stats.blockPercentile(burst, 0.9).contains(89.0))
  }

  test("delay split: head and marker parts sum to the delay") {
    val t0 = 1_000_000L
    val applied = Map(
      WorkerId("J1", 0) -> (t0 + 1_200_000L), WorkerId("J1", 1) -> (t0 + 1_700_000L),
      WorkerId("J4", 0) -> (t0 + 9_100_000L), WorkerId("J4", 1) -> (t0 + 8_300_000L))
    val s = DelaySplit.of(t0, applied, "J1")
    assert(s.headMs == 1.7)
    assert(math.abs(s.markerMs - 7.4) < 1e-9)
    assert(math.abs(s.headMs + s.markerMs - s.delayMs) < 1e-9)
    assert(s.delayMs == 9.1)
  }

  private def checksum(rows: Iterable[Map[String, Any]]): Long = rows.foldLeft(0L)(_ + Checksum.row(_))

  private val prm = W2Data.params(p = 1, srcRate = 0, srcCap = 0, midCap = 0)
  private val in = W2Data.generate(seed = 7, probeRows = 400)

  /** The sink rows W2 produces for emission numbers 0 until n, computed
    * with the repository's own join logic.
    */
  private def engineRows(n: Int): Vector[Map[String, Any]] = {
    val logics = W2.dataflow(in, prm).ops.filter(o => W2.joins.contains(o.name)).map(_.logic(0))
    (0 until n).toVector.flatMap { seq =>
      val row = in.probe(seq % in.probe.size) + (Checksum.SeqCol -> seq.toLong)
      logics.foldLeft(Seq(row)) { (rows, l) =>
        rows.flatMap(r => l.process(repro.dataflow.DTuple(seq.toLong, 0, r)).map(_._1))
      }
    }
  }

  test("reference agrees with W2's operators on generated inputs") {
    val rows = engineRows(1000) // wraps around the 400 probe rows
    assert(rows.size == 1000)
    assert(W2Data.reference(in, prm, 1000) == ((1000L, checksum(rows))))
  }

  test("checksum catches a dropped, a duplicated and an altered tuple") {
    val rows = engineRows(500)
    val (_, ref) = W2Data.reference(in, prm, 500)
    assert(checksum(rows) == ref)
    assert(checksum(rows.reverse) == ref, "order must not matter")
    assert(checksum(rows.patch(123, Nil, 1)) != ref)
    assert(checksum(rows :+ rows(9)) != ref)
    val altered = rows.updated(42, rows(42).updated("cs_sales_price", 0.01))
    assert(checksum(altered) != ref)
    val swapped = rows.updated(7, rows(7).updated(Checksum.SeqCol, 8L))
    assert(checksum(swapped) != ref)
  }

  test("generator is deterministic in the seed") {
    assert(W2Data.generate(7, 400) == in)
    assert(W2Data.generate(8, 400).probe != in.probe)
  }
}
