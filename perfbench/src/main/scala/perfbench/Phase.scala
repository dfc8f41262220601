package perfbench

import java.util.concurrent.locks.LockSupport
import scala.collection.mutable
import scala.util.control.NonFatal
import repro.dataflow._
import repro.ft.CheckpointCoordinator
import repro.sched.{EpochScheduler, FriesScheduler, ReconfigScheduler}
import repro.txn.VersionAudit
import repro.workflows.W2

/** One benchmark workload on the W2 chain SRC → J1 → J2 → J3 → J4 → SINK.
  *
  * @param joinCostNanos simulated per-tuple cost per join (parked, so it
  *                      uses no CPU)
  * @param srcCap        capacity of the SRC → J1 channels (0 = engine default)
  * @param midCap        capacity of the other channels (0 = engine default)
  * @param ratePerSec    open-loop source rate; 0 = unthrottled
  * @param pauseMs       pause after each request cycle
  * @param warmupMs      warm-up before the window, requests without pauses
  */
final case class Workload(name: String, p: Int, joinCostNanos: Map[String, Long],
    srcCap: Int, midCap: Int, ratePerSec: Double, pauseMs: Long, warmupMs: Long)

object Workload {
  val ProbeRows = 100_000

  val all: Vector[Workload] = Vector(
    // Table 4's all-choke-point regime: costs ramp up stage by stage so
    // every channel stays full; delays are marker travel and alignment.
    Workload("backlog", p = 2,
      joinCostNanos = Map("J1" -> 100_000L, "J2" -> 110_000L, "J3" -> 120_000L, "J4" -> 130_000L),
      srcCap = 128, midCap = 16, ratePerSec = 0, pauseMs = 0, warmupMs = 3000),
    // Nearly empty channels: delays are FCM dispatch, worker wake-up,
    // planning and empty marker hops; idle CPU shows the polling cost.
    // Its sub-millisecond delays need the longer warm-up: after 3 s some
    // runs still had parts of the request path uncompiled, and their delays
    // were 20% slower.
    Workload("light", p = 2, joinCostNanos = Map.empty, srcCap = 0, midCap = 0,
      ratePerSec = 2000, pauseMs = 40, warmupMs = 8000),
    // The per-tuple data path (routing, map merges, allocation per hop and
    // the schedule log's global queue and the garbage it keeps alive) takes
    // most of the CPU, at about a quarter of the rate an unthrottled source
    // reaches, so the six engine threads and the collector fit in the
    // host's CPUs.
    Workload("heavy", p = 1, joinCostNanos = Map.empty, srcCap = 0, midCap = 0,
      ratePerSec = 40_000, pauseMs = 20, warmupMs = 3000))

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

final case class Metric(value: Double, unit: String, n: Long)

/** One engine lifetime of a workload: generate the inputs, set up the
  * engine (several times, timing each), warm up, run the request loop for the measurement window, drain, and
  * check the output and the consistency of every request.
  *
  * The request loop is closed, one request outstanding: a Fries request, an
  * aligned checkpoint, an Epoch request, then the workload's pause. Every
  * request reconfigures {J1, J4} with dummy updates; its MCS is J1..J4.
  */
final class Phase(wl: Workload, seed: Long, seconds: Int, traced: Boolean) {
  import Phase._

  /** Spans around the benchmark's calls into the system; empty unless traced. */
  val spans = new Spans(traced)
  val e2e = mutable.LinkedHashMap.empty[String, Metric]
  val layer = mutable.LinkedHashMap.empty[String, Metric]
  val problems = mutable.ArrayBuffer.empty[String]
  var attempted = 0L
  var failed = 0L
  var firstFailure: Option[String] = None
  /** Garbage collections inside the window: (count, milliseconds). */
  var gcInWindow = (0L, 0L)

  private val window = new Window
  private val jitter = new scala.util.Random(seed)
  private val fries = mutable.ArrayBuffer.empty[DelaySplit]
  private val epochs = mutable.ArrayBuffer.empty[DelaySplit]
  private val checkpoints = mutable.ArrayBuffer.empty[Double]
  private val planUs = mutable.ArrayBuffer.empty[Double]
  private val backlogAll, backlogSrc, backlogMcs = mutable.ArrayBuffer.empty[Double]
  private var ckptTriggered, ckptCommitted = 0L

  private final class Rig(val df: Dataflow, val engine: Engine, val feed: Feed,
      val sinks: Vector[BenchSink], val logics: mutable.Map[String, mutable.ArrayBuffer[Instrumented]],
      val coordinator: CheckpointCoordinator, val fries: FriesScheduler, val epoch: EpochScheduler,
      val setupS: Double)

  /** Builds a running engine on `in`. Only the program's part is timed as
    * `setupS`: `W2.dataflow`, `new Engine`, `start()` and the coordinator
    * and schedulers, everything the program does before the first request.
    */
  private def setUp(in: W2.Inputs, prm: W2.Params): Rig = spans("setup") { sid =>
    val feed = new Feed(in.probe, wl.ratePerSec, window, traced)
    val sinks = Vector.fill(wl.p)(new BenchSink(window))
    val logics = mutable.Map.empty[String, mutable.ArrayBuffer[Instrumented]]
    def instrument(op: String, l: OpLogic): OpLogic = {
      val cost = wl.joinCostNanos.getOrElse(op, 0L)
      if (cost == 0L && !traced) l
      else {
        val i = new Instrumented(l, cost, if (traced) window else null)
        logics.getOrElseUpdate(op, mutable.ArrayBuffer.empty) += i
        i
      }
    }
    val t0 = System.nanoTime()
    val base = W2.dataflow(in, prm)
    val df = base.copy(
      sources = base.sources.map(_.copy(rows = () => feed.rows())),
      ops = base.ops.map { op =>
        if (op.name == "SINK") op.copy(logic = i => instrument(op.name, sinks(i)))
        else op.copy(logic = i => instrument(op.name, op.logic(i)))
      })
    val engine = spans("engine.build", sid)(_ => new Engine(df))
    spans("engine.start", sid)(_ => engine.start())
    val coordinator = new CheckpointCoordinator(engine)
    val fries = new FriesScheduler(checkpoint = Some(coordinator))
    val epoch = new EpochScheduler
    val setupS = (System.nanoTime() - t0) / 1e9
    new Rig(df, engine, feed, sinks, logics, coordinator, fries, epoch, setupS)
  }

  def run(): this.type = {
    // Input generation is the benchmark's own work: reported, not gated.
    val t0 = System.nanoTime()
    val in = spans("generate")(_ => W2Data.generate(seed, Workload.ProbeRows))
    e2e("generate_s") = Metric((System.nanoTime() - t0) / 1e9, "s", 1)
    val prm = W2Data.params(wl.p, wl.ratePerSec, wl.srcCap, wl.midCap)
    // Set up many times and keep the last rig. The first set-ups load
    // classes and run interpreted (the first takes about 100 ms, the next
    // ones fall from about 10 ms to 3 ms), so setup_s is the median of the
    // set-ups after those.
    val setupS = mutable.ArrayBuffer.empty[Double]
    var rig: Rig = null
    // Start the set-ups, and later the warm-up, from a collected heap. All
    // the set-ups together allocate far less than the young generation
    // holds, so no garbage from before is collected inside a timed set-up.
    // (A collection before each set-up would cost about 50 ms apiece.)
    System.gc()
    for (i <- 0 until SetupWarmup + SetupReps) {
      if (rig != null) spans("engine.stop")(_ => rig.engine.shutdownNow())
      rig = setUp(in, prm)
      if (i >= SetupWarmup) setupS += rig.setupS
    }
    e2e("setup_s") = Metric(Stats.median(setupS.toSeq), "s", SetupReps)
    System.gc()
    try measure(rig, in, prm)
    finally rig.engine.shutdownNow()
    this
  }

  private def measure(rig: Rig, in: W2.Inputs, prm: W2.Params): Unit = {
    val engine = rig.engine
    val coordinator = rig.coordinator
    val friesSched = rig.fries
    val epochSched = rig.epoch

    val plans = friesSched.plan(rig.df, Targets)
    val plan = plans.head
    if (plans.size != 1 || plan.mcsOps != W2.joins.toSet || plan.components.size != 1 ||
        plan.components.head.heads != Set(Head) || plan.longestPathLength != 3)
      problems += s"unexpected Fries plan: MCS ${plan.mcsOps}, heads " +
        s"${plan.components.map(_.heads)}, longest path ${plan.longestPathLength}"
    layer("core.mcs_ops") = Metric(plan.mcsOps.size, "count", 1)
    layer("core.mcs_longest_path") = Metric(plan.longestPathLength, "count", 1)

    def timed[A](what: String)(body: => A): Option[A] = {
      attempted += 1
      try Some(body)
      catch {
        case NonFatal(e) =>
          failed += 1
          if (firstFailure.isEmpty) firstFailure = Some(s"$what: ${e.getMessage}")
          None
      }
    }

    def sampleBacklog(): Unit = {
      var all, src, mcs = 0
      engine.channels.foreach { c =>
        val b = c.backlog
        all += b
        if (c.from.op == "SRC") src += b
        if (W2.joins.contains(c.from.op) && W2.joins.contains(c.to.op)) mcs += b
      }
      backlogAll += all; backlogSrc += src; backlogMcs += mcs
    }

    def request(kind: String, sched: ReconfigScheduler, into: mutable.ArrayBuffer[DelaySplit],
        record: Boolean): Unit = spans(kind) { sid =>
      if (traced && record) {
        sampleBacklog()
        if (sched eq friesSched) spans("plan", sid) { _ =>
          val t = System.nanoTime()
          friesSched.plan(rig.df, Targets)
          planUs += (System.nanoTime() - t) / 1e3
        }
      }
      val t0 = System.nanoTime()
      timed(kind)(spans("execute", sid)(_ => sched.execute(engine, Request, OpTimeoutMs))).foreach { o =>
        if (record) into += DelaySplit.of(t0, o.applyTimes, Head)
        o.applyTimes.foreach { case (w, t) => spans.instant("apply", sid, t, "worker" -> w.toString) }
      }
    }

    def checkpoint(record: Boolean): Unit = spans("checkpoint") { _ =>
      val t0 = System.nanoTime()
      timed("checkpoint") {
        val id = coordinator.trigger().getOrElse(sys.error("checkpoints blocked"))
        ckptTriggered += 1
        require(coordinator.awaitCompleted(id, OpTimeoutMs),
          s"checkpoint $id did not commit within ${OpTimeoutMs}ms")
        ckptCommitted += 1
        if (record) checkpoints += (System.nanoTime() - t0) / 1e6
      }
    }

    def sleep(nanos: Long): Unit = {
      val until = System.nanoTime() + nanos
      while (System.nanoTime() < until) LockSupport.parkNanos(until - System.nanoTime())
    }
    val emitPeriodNs = if (wl.ratePerSec > 0) (1e9 / wl.ratePerSec).toLong else 0L

    def cycle(record: Boolean): Unit = {
      request("fries", friesSched, fries, record)
      checkpoint(record)
      // A checkpoint completes a fixed time after an open-loop source's
      // emission, and Epoch markers leave with the source's next one, so a
      // seeded gap of up to two emission periods keeps the Epoch request off
      // a fixed phase of the emission schedule.
      if (record && emitPeriodNs > 0) sleep((2 * emitPeriodNs * jitter.nextDouble()).toLong)
      request("epoch", epochSched, epochs, record)
      // Warm-up cycles do not pause, so the request path is compiled by the
      // time the window opens. Seeded jitter (0.5x to 1.5x the pause) keeps
      // requests from locking onto the phase of the emission schedule.
      if (record && wl.pauseMs > 0) sleep(((0.5 + jitter.nextDouble()) * wl.pauseMs * 1e6).toLong)
    }

    val warmEnd = System.nanoTime() + wl.warmupMs * 1_000_000L
    while (System.nanoTime() < warmEnd) cycle(record = false)

    val opNames = rig.df.sources.map(_.name).toSet ++ rig.df.ops.map(_.name)
    val opCpu0 = if (traced) Cpu.perOperator(opNames) else Map.empty[String, Long]
    val cpu0 = Cpu.processNanos
    val gc0 = Cpu.gcCountAndMillis
    window.startNs = System.nanoTime()
    // Run for the window; if a tail still lacks the samples it needs,
    // keep going (up to three windows) rather than report it unbacked.
    val end = window.startNs + seconds * 1_000_000_000L
    val hardEnd = window.startNs + 3L * seconds * 1_000_000_000L
    val needed = Stats.samplesNeeded(0.9)
    def short = Seq(fries.size, epochs.size, checkpoints.size).min < needed
    while (System.nanoTime() < end || (short && System.nanoTime() < hardEnd)) cycle(record = true)
    window.endNs = System.nanoTime()
    val cpu1 = Cpu.processNanos
    val gc1 = Cpu.gcCountAndMillis
    gcInWindow = (gc1._1 - gc0._1, gc1._2 - gc0._2)
    val opCpu1 = if (traced) Cpu.perOperator(opNames) else Map.empty[String, Long]
    val windowS = (window.endNs - window.startNs) / 1e9

    // Sources loop until here; only now may the stream end.
    spans("engine.stop")(_ => engine.stopSources())
    try spans("engine.drain")(_ => engine.awaitCompletion(DrainTimeoutMs))
    catch { case NonFatal(e) => problems += s"engine did not drain: ${e.getMessage}" }

    // ---- output checks
    val emitted = engine.sourceRuntimes.values.map(_.emitted).sum
    val sinkCount = rig.sinks.map(_.count).sum
    if (sinkCount != emitted) problems += s"sink received $sinkCount tuples, sources emitted $emitted"
    val (refCount, refSum) = spans("reference")(_ => W2Data.reference(in, prm, emitted))
    if (refCount != sinkCount || refSum != rig.sinks.map(_.checksum).sum)
      problems += s"sink checksum differs from the sequential reference ($refCount rows)"
    val (records, logReadS) = spans("audit.read")(_ => secondsOf(engine.log.dataRecords))
    engine.log.clear() // the audit needs only the records; free the heap for it
    val (violations, auditS) = spans("audit.check")(_ => secondsOf(VersionAudit.check(records, Targets)))
    if (violations.nonEmpty)
      problems += s"${violations.size} transactions saw two versions of {J1,J4}, e.g. ${violations.head}"
    val bad = coordinator.completed.keys.filterNot(coordinator.isConsistent(_, Targets))
    if (bad.nonEmpty) problems += s"checkpoints ${bad.mkString(",")} mix versions of {J1,J4}"

    // ---- end-to-end metrics
    // Samples are in request order; see Stats.blockPercentile.
    def pct(name: String, xs: Iterable[Double], q: Double, unit: String, into: mutable.Map[String, Metric]): Unit =
      Stats.blockPercentile(xs.toArray, q) match {
        case Some(v) => into(name) = Metric(v, unit, xs.size)
        case None => problems += s"$name: only ${xs.size} samples, need ${Stats.samplesNeeded(q)}"
      }
    pct("fries_delay_ms_p50", fries.map(_.delayMs), 0.5, "ms", e2e)
    pct("fries_delay_ms_p90", fries.map(_.delayMs), 0.9, "ms", e2e)
    pct("epoch_delay_ms_p50", epochs.map(_.delayMs), 0.5, "ms", e2e)
    pct("epoch_delay_ms_p90", epochs.map(_.delayMs), 0.9, "ms", e2e)
    pct("checkpoint_ms_p50", checkpoints, 0.5, "ms", e2e)
    pct("checkpoint_ms_p90", checkpoints, 0.9, "ms", e2e)
    // Tuple latency percentiles are taken per one-second slice of the
    // window and reported as the median over the slices, so one noisy
    // second does not move them.
    val latUs = rig.sinks.flatMap(_.latencies.result()).map(_ / 1e3).toArray
    val latSlices = Stats.slices(rig.sinks.flatMap(_.arrivals.result()).toArray, latUs,
      window.startNs, window.endNs, math.max(1, windowS.toInt))
    for ((name, q) <- Seq("tuple_latency_us_p50" -> 0.5, "tuple_latency_us_p90" -> 0.9,
        "tuple_latency_us_p95" -> 0.95, "tuple_latency_us_p99" -> 0.99))
      Stats.slicedPercentile(latSlices, q) match {
        case Some(v) => e2e(name) = Metric(v, "us", latUs.length)
        case None => problems += s"$name: a one-second slice has fewer than ${Stats.samplesNeeded(q)} samples"
      }
    val tuples = rig.sinks.map(_.inWindow).sum
    if (tuples == 0) problems += "no tuple reached the sink inside the window"
    e2e("throughput_tps") = Metric(tuples / windowS, "1/s", tuples)
    e2e("cpu_us_per_tuple") = Metric((cpu1 - cpu0) / 1e3 / math.max(1L, tuples), "us", tuples)
    e2e("cpu_cores") = Metric((cpu1 - cpu0) / 1e9 / windowS, "cores", 1)
    e2e("ops_failed_ratio") = Metric(failed.toDouble / math.max(1L, attempted), "ratio", attempted)

    // ---- per-layer metrics (traced runs)
    layer("txn.log_records_per_tuple") = Metric(records.size.toDouble / math.max(1L, emitted), "count", emitted)
    layer("txn.log_read_s") = Metric(logReadS, "s", 1)
    layer("txn.audit_check_s") = Metric(auditS, "s", 1)
    layer("txn.violations") = Metric(violations.size, "count", records.size)
    layer("ft.checkpoint_commit_ratio") =
      Metric(ckptCommitted.toDouble / math.max(1L, ckptTriggered), "ratio", ckptTriggered)
    if (traced) {
      pct("core.plan_us_p50", planUs, 0.5, "us", layer)
      pct("sched.fries_head_apply_ms_p50", fries.map(_.headMs), 0.5, "ms", layer)
      pct("sched.fries_marker_ms_p50", fries.map(_.markerMs), 0.5, "ms", layer)
      pct("sched.epoch_first_apply_ms_p50", epochs.map(_.headMs), 0.5, "ms", layer)
      pct("sched.epoch_marker_ms_p50", epochs.map(_.markerMs), 0.5, "ms", layer)
      pct("dataflow.backlog_at_request_tuples_p50", backlogAll, 0.5, "count", layer)
      pct("dataflow.src_backlog_at_request_tuples_p50", backlogSrc, 0.5, "count", layer)
      pct("dataflow.mcs_backlog_at_request_tuples_p50", backlogMcs, 0.5, "count", layer)
      val opCpu = opNames.toSeq.sorted.map(op => op -> (opCpu1.getOrElse(op, 0L) - opCpu0.getOrElse(op, 0L)))
      opCpu.foreach { case (op, ns) => layer(s"dataflow.cpu_cores.$op") = Metric(ns / 1e9 / windowS, "cores", 1) }
      // All three terms are thread CPU time.
      val logicNs = rig.logics.values.flatten.map(_.nanos).sum
      val engineNs = opCpu.map(_._2).sum - logicNs - rig.feed.genNanos
      layer("dataflow.engine_us_per_tuple") = Metric(engineNs / 1e3 / math.max(1L, tuples), "us", tuples)
      pct("dataflow.source_lag_us_p99", rig.feed.lags.result().map(_ / 1e3), 0.99, "us", layer)
      W2.joins.foreach { op =>
        val ls = rig.logics(op)
        layer(s"workflows.logic_us_per_tuple.$op") =
          Metric(ls.map(_.nanos).sum / 1e3 / math.max(1L, ls.map(_.count).sum), "us", ls.map(_.count).sum)
      }
    }
  }
}

object Phase {
  val Targets: Set[String] = Set("J1", "J4")
  val Head = "J1"
  val Request: Reconfiguration = Reconfiguration.dummy("J1", "J4")
  val SetupWarmup = 30
  val SetupReps = 301
  val OpTimeoutMs = 5000L
  val DrainTimeoutMs = 30_000L

  private def secondsOf[A](body: => A): (A, Double) = {
    val t = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t) / 1e9)
  }
}
