package repro.perfbench

import repro.core.td.TD
import scala.collection.mutable.ArrayBuffer

/** Benchmark entry point: one run of one workload.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --jvm "<flags>" [--out <file>] [--rev <id>]
  * }}}
  *
  * The process that starts is a small coordinator. It runs the measurement
  * in fresh child JVMs, one after another, started with the `--jvm` flags:
  * `Workload.forks` children share `--seconds` in an untraced run, one child
  * does a traced run. Pooling batches from several JVMs averages out what
  * differs from one JVM to the next (JIT decisions, memory placement).
  *
  * `--trace 0` measures the end-to-end metrics through the public
  * `Solution` calls; `--trace 1` records spans around every call into a
  * layer and reports the per-layer metrics. Both check every released
  * query stage against Dijkstra after every batch; the exit code is 3 if an
  * answer is wrong. The last line of standard output is the result object;
  * the line before it records the environment.
  */
object Main {
  import Workloads.Threads

  /** Untimed batches before measuring (JIT warm-up). */
  val WarmBatches = 3
  /** Fewest measured batches per child, however short `--seconds` is. */
  val MinBatches = 4
  /** Seeded pairs checked against Dijkstra after every batch. */
  val CheckPairs = 16
  /** Final-stage query samples per measured batch: p99 of each batch
    * leaves 200 samples beyond it.
    */
  val BestPairsPerBatch = 20000
  /** Per-layer latency sampling: at least 1,000 queries (10 beyond p99),
    * more while this many seconds last, at most 20,000.
    */
  val SampleBudgetS = 0.25
  /** Batches the traced run feeds the engine the workload does not run. */
  val SideBatches = 3
  /** Batches the traced run replays to the standalone kernels. */
  val ReplayBatches = 8

  /** One tick of System.nanoTime, in µs (latencies are whole ticks). */
  val NanoUs = 1e-3

  final case class Metric(name: String, value: Double, unit: String, isCount: Boolean = false)

  private final class Args(val m: Map[String, String]) {
    def apply(k: String): String =
      m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    def get(k: String): Option[String] = m.get(k)
  }

  def main(argv: Array[String]): Unit = {
    require(argv.length % 2 == 0, "arguments come in --key value pairs")
    val args = new Args(argv.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap)
    val w = Workloads.byName(args("workload"))
    val seed = args("seed").toLong
    val seconds = args("seconds").toDouble
    val traced = args("trace") match {
      case "0" => false
      case "1" => true
      case x => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $x")
    }
    args.get("child") match {
      case Some(i) => child(args, w, seed, seconds, traced, i.toInt)
      case None    => coordinate(args, w, seed, seconds, traced)
    }
  }

  private def child(args: Args, w: Workload, seed: Long, seconds: Double, traced: Boolean, i: Int): Unit = {
    val g = w.spec.build()
    require(g.n == w.nV && g.m == w.nE,
      s"${w.spec.name} has ${g.n} vertices and ${g.m} edges; the workload pins ${w.nV} and ${w.nE}")
    require(g.n.toLong * Workloads.WeightCap < TD.Inf, "weight cap too large for TD.Inf")
    val run = new Run(w, g, mix(seed, 1000 + i), seconds / args("forks").toInt)
    val report = if (traced) run.traced(args.get("out")) else run.untraced()
    report.lines.foreach(println)
  }

  private def coordinate(args: Args, w: Workload, seed: Long, seconds: Double, traced: Boolean): Unit = {
    val forks = if (traced) 1 else w.forks
    val jvm = args.get("jvm").toSeq.flatMap(_.split(" ")).filter(_.nonEmpty)
    val javaBin = Seq(System.getProperty("java.home"), "bin", "java").mkString(java.io.File.separator)
    val pass = args.m.toSeq.filter(_._1 != "jvm").flatMap { case (k, v) => Seq(s"--$k", v) }
    val reports = (0 until forks).map { i =>
      val cmd = Seq(javaBin) ++ jvm ++ Seq("-cp", System.getProperty("java.class.path"),
        "repro.perfbench.Main", "--child", i.toString, "--forks", forks.toString) ++ pass
      val p = new ProcessBuilder(cmd: _*).redirectError(ProcessBuilder.Redirect.INHERIT).start()
      // If this JVM is stopped, stop the measurement JVM with it.
      val stop = new Thread(() => { p.destroyForcibly(); p.waitFor(); () })
      Runtime.getRuntime.addShutdownHook(stop)
      val lines = scala.io.Source.fromInputStream(p.getInputStream, "UTF-8").getLines().toVector
      val code = p.waitFor()
      Runtime.getRuntime.removeShutdownHook(stop)
      if (code != 0) throw new IllegalStateException(s"measurement JVM $i exited with code $code")
      Report.parse(lines)
    }
    val attempted = reports.map(_.attempted).sum
    val failed = reports.map(_.failed).sum
    val failFrac = if (attempted == 0) 0.0 else failed.toDouble / attempted
    val pooled = reports.flatMap(_.values).groupBy(_._1).map { case (k, vs) => k -> vs.flatMap(_._2) }
    val metrics =
      if (traced) reports.head.metrics
      else Seq(
        Metric("setup_s", Stats.median(pooled("setup_s")), "s"),
        Metric("update_s", Stats.median(pooled("update_s")), "s"),
        Metric("query_p50_us", Stats.median(pooled("query_p50_us")), "us"),
        Metric("query_p99_us", Stats.median(pooled("query_p99_us")), "us"),
        Metric("index_entries", pooled("index_entries").head, "count", isCount = true))

    println("env " + Json.obj(Seq(
      "workload" -> Json.str(w.name), "engine" -> Json.str(w.engine), "dataset" -> Json.str(w.spec.name),
      "seed" -> seed.toString, "trace" -> traced.toString, "seconds" -> Json.num(seconds),
      "V" -> w.nV.toString, "E" -> w.nE.toString, "U" -> w.batchSize.toString,
      "U_rule" -> Json.str(if (w.batchSize == w.nV / 50) "|V|/50 (Datasets.defaultUpdateVolume)" else "|V|/500"),
      "delta_t_s" -> Json.num(w.deltaT), "rq_star_s" -> Json.num(w.rqStar),
      "threads" -> Threads.toString, "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"),
      "jvm_flags" -> Json.arr(jvm.map(Json.str)), "jvms" -> forks.toString,
      "rev" -> Json.str(args.get("rev").getOrElse("unknown")),
      "batches" -> reports.map(_.batches).sum.toString,
      "fail_frac" -> Json.num(failFrac),
      "query_samples_per_batch" -> BestPairsPerBatch.toString,
      "query_highest_percentile" -> Json.num(Stats.highestPercentile(BestPairsPerBatch).get),
      "stages" -> Json.arr(reports.flatMap(_.notes).map(Json.str)),
      "per_batch" -> Json.obj(pooled.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.arr(v.map(Json.num)) }))))
    metrics.foreach(m => System.err.println(f"${m.name}%-34s ${m.value}%14.6f ${m.unit}"))
    System.err.println(f"${"fail_frac"}%-34s $failFrac%14.6f fraction ($failed of $attempted)")
    println(Json.obj(Seq(
      "correct" -> (failed == 0).toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.map { m =>
        m.name -> Json.obj(Seq(
          "value" -> (if (m.isCount) m.value.toLong.toString else Json.num(m.value)),
          "unit" -> Json.str(m.unit)))
      }))))
    System.out.flush()
    if (failed > 0) {
      System.err.println(s"FAIL: $failed answers differ from Dijkstra; first: ${reports.map(_.firstFailure).find(_.nonEmpty).get}")
      sys.exit(3)
    }
  }

  /** Per-query latencies in µs, after an untimed warm-up over the first
    * `warm` pairs. With a `budgetS`, sampling stops once both `minN`
    * queries and `budgetS` seconds are done.
    */
  def latencies(q: (Int, Int) => Int, p: Pairs, warm: Int,
                budgetS: Double = Double.PositiveInfinity, minN: Int = 1000): Array[Double] = {
    var sink = 0L
    var i = 0
    while (i < math.min(warm, p.length)) { sink += q(p.s(i), p.t(i)); i += 1 }
    val out = new Array[Double](p.length)
    val stop = System.nanoTime() + math.min(budgetS * 1e9, 1e15).toLong
    i = 0
    while (i < p.length && (i < minN || System.nanoTime() < stop)) {
      val t0 = System.nanoTime()
      sink += q(p.s(i), p.t(i))
      out(i) = (System.nanoTime() - t0) / 1e3
      i += 1
    }
    if (sink == 42L) System.err.print("") // keep the answers live
    java.util.Arrays.copyOf(out, i)
  }

  /** splitmix64 of (seed, purpose, index): independent seeded streams. */
  def mix(seed: Long, purpose: Long, i: Long = 0): Long = {
    var z = seed * 0x9e3779b97f4a7c15L + purpose * 0xbf58476d1ce4e5b9L + i * 0x94d049bb133111ebL
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}

/** What one measurement JVM reports to the coordinator, as `@` lines on
  * its standard output: raw values to pool (untraced), finished metrics
  * (traced), the exactness tally, and notes for the environment record.
  */
final case class Report(
    values: Seq[(String, Seq[Double])],
    metrics: Seq[Main.Metric],
    attempted: Long,
    failed: Long,
    firstFailure: String,
    batches: Int,
    notes: Seq[String],
) {
  def lines: Seq[String] =
    values.map { case (k, v) => s"@v $k ${v.mkString(" ")}" } ++
      metrics.map(m => s"@m ${m.name} ${m.unit} ${m.isCount} ${m.value}") ++
      Seq(s"@n $attempted $failed $batches") ++
      Seq(firstFailure).filter(_.nonEmpty).map("@f " + _) ++
      notes.map("@s " + _)
}

object Report {
  def parse(lines: Seq[String]): Report = {
    val values = ArrayBuffer[(String, Seq[Double])]()
    val metrics = ArrayBuffer[Main.Metric]()
    var counts = Array(0L, 0L, 0L)
    var failure = ""
    val notes = ArrayBuffer[String]()
    lines.foreach { l =>
      val f = l.split(" ")
      f.head match {
        case "@v" => values += f(1) -> f.drop(2).toSeq.map(_.toDouble)
        case "@m" => metrics += Main.Metric(f(1), f(4).toDouble, f(2), f(3).toBoolean)
        case "@n" => counts = f.drop(1).map(_.toLong)
        case "@f" => failure = l.drop(3)
        case "@s" => notes += l.drop(3)
        case _    => System.err.println(l)
      }
    }
    Report(values.toSeq, metrics.toSeq, counts(0), counts(1), failure, counts(2).toInt, notes.toSeq)
  }
}
