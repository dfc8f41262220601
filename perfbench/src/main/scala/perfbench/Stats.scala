package perfbench

import repro.dataflow.WorkerId

object Stats {

  /** A percentile is reported only when at least this many samples lie
    * beyond it, so a p90 needs 100 samples and a p99 needs 1,000.
    */
  val MinBeyond = 10

  /** Nearest-rank percentile `q` (in (0, 1)) of `xs`, or None when fewer
    * than [[MinBeyond]] samples lie above it.
    */
  def percentile(xs: Array[Double], q: Double): Option[Double] = {
    val n = xs.length
    // 1-based rank; the epsilon keeps 0.9 * 100 at rank 90.
    val rank = math.max(1, math.ceil(q * n - 1e-9).toInt)
    if (n - rank < MinBeyond) None
    else {
      val sorted = xs.clone()
      java.util.Arrays.sort(sorted)
      Some(sorted(rank - 1))
    }
  }

  /** Smallest sample count for which [[percentile]] reports `q`. */
  def samplesNeeded(q: Double): Int =
    Iterator.from(1).find(n => n - math.max(1, math.ceil(q * n - 1e-9).toInt) >= MinBeyond).get

  /** Percentile `q` of each block of consecutive samples, then the median
    * over the blocks. The blocks are as many as can each back the
    * percentile (at least [[samplesNeeded]] samples), of near-equal size.
    * With samples in time order, a burst of contention on the host moves
    * only the blocks it falls in. None when there are too few samples.
    */
  def blockPercentile(xs: Array[Double], q: Double): Option[Double] = {
    val k = xs.length / samplesNeeded(q)
    if (k == 0) None
    else {
      val each = (0 until k).flatMap(b => percentile(xs.slice(b * xs.length / k, (b + 1) * xs.length / k), q))
      Some(median(each))
    }
  }

  /** Percentile `q` of each slice, then the median over the slices; None
    * when any slice lacks the samples [[percentile]] needs.
    */
  def slicedPercentile(slices: Seq[Array[Double]], q: Double): Option[Double] = {
    val each = slices.map(percentile(_, q))
    if (each.isEmpty || each.exists(_.isEmpty)) None else Some(median(each.flatten))
  }

  /** Splits timed samples into `n` equal time slices of [start, end). */
  def slices(times: Array[Long], values: Array[Double], start: Long, end: Long, n: Int): Seq[Array[Double]] = {
    val bufs = Array.fill(n)(Array.newBuilder[Double])
    var i = 0
    while (i < times.length) {
      val k = ((times(i) - start).toDouble / (end - start) * n).toInt
      bufs(math.min(n - 1, math.max(0, k))) += values(i)
      i += 1
    }
    bufs.map(_.result()).toSeq
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.size
    require(n > 0, "median of no samples")
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

/** A reconfiguration delay split at the head operator: from the request
  * until every head worker applied, then until the last target worker
  * applied. The two parts sum to the delay.
  */
final case class DelaySplit(delayMs: Double, headMs: Double, markerMs: Double)

object DelaySplit {
  def of(requestNs: Long, applyTimes: Map[WorkerId, Long], headOp: String): DelaySplit = {
    val last = applyTimes.values.max
    val headLast = applyTimes.collect { case (w, t) if w.op == headOp => t }.max
    DelaySplit((last - requestNs) / 1e6, (headLast - requestNs) / 1e6, (last - headLast) / 1e6)
  }
}

