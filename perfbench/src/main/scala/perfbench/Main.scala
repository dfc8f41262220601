package perfbench

import java.nio.file.Paths

/** The repository benchmark. Usage:
  *
  * {{{
  *   Main --workload <backlog|light|heavy> --seed <n> --seconds <s>
  *        --trace <0|1> [--spans <file>]
  * }}}
  *
  * Prints a report, then as its last line one JSON object with `correct`,
  * `attempted`, `failed` and `metrics`: the end-to-end metrics of an
  * untraced run (`--trace 0`), or the per-layer metrics of a traced run
  * (`--trace 1`). A traced invocation first repeats the untraced run, so
  * the difference between the two is the tracing overhead. Exits 1 when
  * an output or consistency check fails.
  */
object Main {

  /** Metrics every untraced run reports, in order. The report also prints
    * `generate_s`, `tuple_latency_us_p95`, `tuple_latency_us_p99` and
    * `ops_failed_ratio`, which are not gated: input generation is the
    * benchmark's own work; on `light` requests stall about 5% of the tuples,
    * so the p95 sits on the edge of those and the p99 among them, and both
    * vary too much between runs; failures are the JSON line's `failed`.
    */
  val EndToEnd: Vector[String] = Vector(
    "fries_delay_ms_p50", "fries_delay_ms_p90", "epoch_delay_ms_p50", "epoch_delay_ms_p90",
    "checkpoint_ms_p50", "checkpoint_ms_p90", "tuple_latency_us_p50", "tuple_latency_us_p90",
    "throughput_tps", "cpu_us_per_tuple", "cpu_cores", "setup_s")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def fail(msg: String): Nothing = {
      System.err.println(s"perfbench: $msg")
      sys.exit(2)
    }
    val wl = opts.get("workload").flatMap(Workload.byName)
      .getOrElse(fail(s"--workload must be one of ${Workload.all.map(_.name).mkString(", ")}"))
    val seed = opts.get("seed").flatMap(_.toLongOption).getOrElse(fail("--seed <n> is required"))
    val seconds = opts.get("seconds").flatMap(_.toIntOption).filter(_ > 0)
      .getOrElse(fail("--seconds <s> is required"))
    val trace = opts.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case other => fail(s"--trace must be 0 or 1, not $other")
    }

    println(s"perfbench: workload ${wl.name}, seed $seed, window ${seconds}s, trace ${if (trace) 1 else 0}")
    val plain = new Phase(wl, seed, seconds, traced = false).run()
    report("end to end (untraced)", plain.e2e, plain.gcInWindow)
    val traced = if (trace) Some(new Phase(wl, seed, seconds, traced = true).run()) else None
    traced.foreach { t =>
      report("end to end (traced)", t.e2e, t.gcInWindow)
      println("tracing overhead (traced vs untraced median):")
      EndToEnd.foreach { m =>
        (plain.e2e.get(m), t.e2e.get(m)) match {
          case (Some(a), Some(b)) => println(f"  $m%-34s ${100 * (b.value - a.value) / a.value}%+8.2f %%")
          case _ => ()
        }
      }
      report("per layer (traced)", t.layer, t.gcInWindow)
      opts.get("spans").foreach { p =>
        t.spans.write(Paths.get(p))
        println(s"spans: ${t.spans.size} written to $p")
      }
    }

    val phases = plain +: traced.toSeq
    phases.flatMap(_.firstFailure).headOption.foreach(f => println(s"first failed operation: $f"))
    val problems = phases.flatMap(_.problems)
    problems.foreach(p => println(s"CHECK FAILED: $p"))
    val metrics = traced match {
      case None => EndToEnd.flatMap(m => plain.e2e.get(m).map(m -> _))
      case Some(t) =>
        val overhead = for {
          a <- plain.e2e.get("cpu_us_per_tuple"); b <- t.e2e.get("cpu_us_per_tuple")
        } yield "trace.overhead_cpu_pct" -> Metric(100 * (b.value - a.value) / a.value, "%", b.n)
        t.layer.toVector ++ overhead
    }
    println(json(problems.isEmpty, phases.map(_.attempted).sum, phases.map(_.failed).sum, metrics))
    sys.exit(if (problems.isEmpty) 0 else 1)
  }

  private def report(title: String, ms: collection.Map[String, Metric], gc: (Long, Long)): Unit = {
    println(s"$title (${gc._1} garbage collections, ${gc._2} ms, inside the window):")
    ms.foreach { case (k, m) => println(f"  $k%-46s ${fmt(m.value)}%16s ${m.unit}%-6s (n=${m.n})") }
  }

  private def fmt(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else f"$v%.4f"

  def json(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Metric)]): String =
    metrics.map { case (k, m) =>
      s""""$k":{"value":${java.lang.Double.toString(m.value)},"unit":"${m.unit}"}"""
    }.mkString(s"""{"correct":$correct,"attempted":$attempted,"failed":$failed,"metrics":{""", ",", "}}")
}
