package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import repro.dataflow.{DTuple, OpLogic}

/** The measurement window. Engine threads test it per tuple, so only
  * tuples that reach the sink while it is open count.
  */
final class Window {
  @volatile var startNs: Long = Long.MaxValue
  @volatile var endNs: Long = Long.MaxValue
  def contains(t: Long): Boolean = t >= startNs && t < endNs
}

/** The benchmark's source iterator: replays the probe rows forever,
  * stamping each with its emission number (`bench_seq`) and the time it was
  * due (`bench_due`). Open loop: row i is due at first-row time + i / rate.
  * Unthrottled: a row is due as soon as the row before it was handed over.
  * Accessed only from the source thread.
  */
final class Feed(probe: Vector[Map[String, Any]], ratePerSec: Double, window: Window,
    traced: Boolean) {
  private val nanosPer = if (ratePerSec > 0) (1e9 / ratePerSec).toLong else 0L
  private var seq = 0L
  private var firstNs = 0L
  private var prevNs = 0L
  /** How late each row inside the window was handed over, ns. */
  val lags = new mutable.ArrayBuilder.ofLong
  /** Thread CPU time spent stamping rows inside the window (traced runs
    * only), ns.
    */
  var genNanos = 0L

  def rows(): Iterator[Map[String, Any]] = probe.iterator.map(stamp)

  private def stamp(row: Map[String, Any]): Map[String, Any] = {
    val now = System.nanoTime()
    val cpu0 = if (traced) Cpu.threadNanos else 0L
    if (seq == 0) { firstNs = now; prevNs = now }
    val due = if (nanosPer > 0) firstNs + seq * nanosPer else prevNs
    val out = row.updated(Checksum.SeqCol, seq).updated("bench_due", due)
    seq += 1
    prevNs = now
    if (window.contains(now)) {
      lags += now - due
      if (traced) genNanos += Cpu.threadNanos - cpu0
    }
    out
  }
}

/** The benchmark's W2 sink: folds every row into the output checksum and
  * records the arrival time and latency of rows that arrive inside the
  * window. Read only after the engine finished.
  */
final class BenchSink(window: Window) extends OpLogic {
  var count = 0L
  var checksum = 0L
  var inWindow = 0L
  val arrivals = new mutable.ArrayBuilder.ofLong
  val latencies = new mutable.ArrayBuilder.ofLong

  override def process(t: DTuple): Seq[(Map[String, Any], Int)] = {
    val now = System.nanoTime()
    checksum += Checksum.row(t.values)
    count += 1
    if (window.contains(now)) {
      inWindow += 1
      arrivals += now
      latencies += now - t.values("bench_due").asInstanceOf[Long]
    }
    Nil
  }
}

/** Wraps an operator's logic with a simulated per-tuple cost and, in traced
  * runs (`window` set), with the thread CPU time spent inside `process` in
  * the window. CPU rather than wall time, so a preempted worker does not
  * count the preemption as logic time.
  */
final class Instrumented(inner: OpLogic, override val costNanos: Long, window: Window)
    extends OpLogic {
  var nanos = 0L
  var count = 0L

  override def process(t: DTuple): Seq[(Map[String, Any], Int)] =
    if (window == null) inner.process(t)
    else if (!window.contains(System.nanoTime())) inner.process(t)
    else {
      val c = Cpu.threadNanos
      val out = inner.process(t)
      nanos += Cpu.threadNanos - c
      count += 1
      out
    }
  override def onFinish(): Seq[(Map[String, Any], Int)] = inner.onFinish()
  override def state: Any = inner.state
}

object Cpu {
  private val threadMx = ManagementFactory.getThreadMXBean
  private val osMx = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val WorkerName = """(.+)#\d+""".r

  def processNanos: Long = osMx.getProcessCpuTime

  /** CPU time used so far by the calling thread, ns. */
  def threadNanos: Long = threadMx.getCurrentThreadCpuTime

  def gcCountAndMillis: (Long, Long) = {
    val bs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (bs.map(_.getCollectionCount).sum, bs.map(_.getCollectionTime).sum)
  }

  /** CPU time used so far by the live threads of the given operators
    * (engine threads are named `op#idx`), summed per operator, ns.
    */
  def perOperator(ops: Set[String]): Map[String, Long] =
    Thread.getAllStackTraces.keySet.asScala.toSeq
      .flatMap { t =>
        t.getName match {
          case WorkerName(op) if ops(op) && t.isAlive => Some(op -> threadMx.getThreadCpuTime(t.getId))
          case _ => None
        }
      }
      .groupMapReduce(_._1)(_._2)(_ + _)
}

/** Spans recorded by the benchmark around its calls into the system. Kept
  * in memory and written once, as Chrome trace-event JSON.
  */
final class Spans(enabled: Boolean) {
  private final case class Span(id: Long, parent: Long, trace: Long, name: String,
      startNs: Long, endNs: Long, attrs: Seq[(String, String)])
  private val buf = mutable.ArrayBuffer.empty[Span]
  private val traceOf = mutable.LongMap.empty[Long]
  private var nextId = 1L

  /** Runs `body` inside a span; `body` gets the span id for its children. */
  def apply[A](name: String, parent: Long = 0L)(body: Long => A): A =
    if (!enabled) body(0L)
    else {
      val id = nextId
      nextId += 1
      traceOf(id) = if (parent == 0L) id else traceOf(parent)
      val s = System.nanoTime()
      try body(id)
      finally buf += Span(id, parent, traceOf(id), name, s, System.nanoTime(), Nil)
    }

  /** A zero-length span: something that happened at `atNs`. */
  def instant(name: String, parent: Long, atNs: Long, attrs: (String, String)*): Unit =
    if (enabled) {
      buf += Span(nextId, parent, traceOf.getOrElse(parent, nextId), name, atNs, atNs, attrs)
      nextId += 1
    }

  def size: Int = buf.size

  def write(path: Path): Unit = {
    val t0 = if (buf.isEmpty) 0L else buf.map(_.startNs).min
    def q(s: String) = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
    val events = buf.sortBy(_.startNs).map { s =>
      val args = (Seq("id" -> s.id.toString, "parent" -> s.parent.toString,
        "trace" -> s.trace.toString).map { case (k, v) => q(k) + ":" + v } ++
        s.attrs.map { case (k, v) => q(k) + ":" + q(v) }).mkString("{", ",", "}")
      s"""{"name":${q(s.name)},"ph":"X","pid":1,"tid":1,"ts":${(s.startNs - t0) / 1e3},""" +
        s""""dur":${(s.endNs - s.startNs) / 1e3},"args":$args}"""
    }
    Option(path.getParent).foreach(Files.createDirectories(_))
    Files.write(path, events.mkString("{\"traceEvents\":[\n", ",\n", "\n]}\n")
      .getBytes(StandardCharsets.UTF_8))
  }
}
