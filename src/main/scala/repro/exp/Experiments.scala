package repro.exp

import repro.graph.{DatasetSpec, Datasets, RoadGraph}
import repro.baseline._
import repro.throughput.{Measure, Params, QueueSim, StageProfile}
import scala.collection.mutable

/** Shared experiment runners behind every bench suite and spark-submit
  * job; each returns formatted paper-style table rows (see DESIGN.md §4
  * for the experiment → module map).
  */
object Experiments {

  val defaultThreads: Int =
    math.max(2, math.min(8, Runtime.getRuntime.availableProcessors() / 2))

  private val cache = mutable.Map[String, RoadGraph]()
  /** Pristine dataset graph (solutions copy weights, never mutate this). */
  def graphOf(spec: DatasetSpec): RoadGraph =
    cache.synchronized(cache.getOrElseUpdate(spec.name, spec.build()))

  /** Algorithm factory, paper names. */
  def mkSolution(algo: String, spec: DatasetSpec, threads: Int = defaultThreads): Solution = {
    val g = graphOf(spec)
    algo match {
      case "BiDijkstra" => new BiDijkstraSolution(g)
      case "DCH"        => new DCHSolution(g)
      case "DH2H"       => new DH2HSolution(g)
      case "MHL"        => new MHLSolution(g)
      case "TOAIN"      => new ToainSolution(g)
      case "N-CH-P"     => new NCHPSolution(g, spec.k, threads)
      case "P-TD-P"     => new PTDPSolution(g, spec.k, threads)
      case "PMHL"       => new PMHLSolution(g, spec.k, threads)
      case "PostMHL"    => new PostMHLSolution(g, spec.tau, spec.ke, threads)
      case other        => sys.error(s"unknown algorithm $other")
    }
  }

  /** Apply `rounds` update batches to `sol`; returns the per-stage mean
    * availability times and, from the final state, empirical query-time
    * samples per stage.
    */
  def profile(sol: Solution, spec: DatasetSpec, uFactor: Double = 1.0,
              rounds: Int = 4, nPairs: Int = 100, seed: Long = 42)
      : IndexedSeq[StageProfile] = {
    val volume = math.max(5, (Datasets.defaultUpdateVolume(spec) * uFactor).round.toInt)
    var lastStages: IndexedSeq[QueryStage] = IndexedSeq.empty
    // Keep the stage vector of the *fastest warm round*: the first batch
    // pays JIT for every solution alike, and min-of-rounds is robust to
    // GC pauses from other solutions sharing the bench JVM.
    var bestTimes: IndexedSeq[Double] = null
    for (r <- 1 to rounds) {
      val batch = Datasets.updateBatch(sol.graph, volume, seed * 1000 + r)
      lastStages = sol.applyBatch(batch)
      if (r > 1 || rounds == 1) {
        val ts = lastStages.map(_.availableFrom)
        if (bestTimes == null || ts.last < bestTimes.last) bestTimes = ts
      }
    }
    val pairs = Measure.randomPairs(sol.graph.n, nPairs, seed + 7)
    lastStages.zipWithIndex.map { case (st, i) =>
      StageProfile(bestTimes(i), Measure.sampleTimes(st.query, pairs), st.label)
    }
  }

  /** Exp 2 row: construction time, index entries, final-stage query time,
    * total update time.
    */
  final case class Perf(algo: String, tc: Double, entries: Long,
                        tqMicros: Double, tuMillis: Double) {
    def row(ds: String): String =
      f"$ds%-9s $algo%-11s ${tc}%9.2f ${entries}%13d ${tqMicros}%11.2f ${tuMillis}%11.2f"
  }

  def indexPerf(spec: DatasetSpec, algo: String, threads: Int = defaultThreads,
                rounds: Int = 3, nPairs: Int = 100, seed: Long = 42): Perf = {
    System.gc() // level the field: drop the previous solution's garbage
    val sol = mkSolution(algo, spec, threads)
    val profiles = profile(sol, spec, rounds = rounds, nPairs = nPairs, seed = seed)
    val tq = profiles.last.mean * 1e6
    val tu = profiles.map(_.availableFrom).max * 1e3
    Perf(algo, sol.buildSeconds, sol.indexEntries, tq, tu)
  }

  /** Exp 3/5: maximum average throughput λ*q for one algorithm. */
  def throughput(spec: DatasetSpec, algo: String,
                 deltaT: Double = Double.NaN, rqStar: Double = Double.NaN,
                 uFactor: Double = 1.0, threads: Int = defaultThreads,
                 rounds: Int = 3, nPairs: Int = 100, seed: Long = 42): Double = {
    val dt = if (deltaT.isNaN) Params.deltaTFor(spec) else deltaT
    val rq = if (rqStar.isNaN) Params.rqStarFor(spec) else rqStar
    val sol = mkSolution(algo, spec, threads)
    val profiles = profile(sol, spec, uFactor, rounds, nPairs, seed)
    QueueSim.maxThroughput(profiles, dt, rq, seed)
  }

  /** Exp 4: QPS (1/t_q of the fastest available stage) at sample points
    * across one update interval.
    */
  def qpsEvolution(profiles: IndexedSeq[StageProfile], deltaT: Double,
                   points: Int = 24): IndexedSeq[(Double, Double)] = {
    val sorted = profiles.sortBy(_.availableFrom)
    (0 until points).map { i =>
      val x = deltaT * i / points
      val open = sorted.filter(_.availableFrom <= x)
      val qps = if (open.isEmpty) 0.0 else 1.0 / open.last.mean
      (x, qps)
    }
  }

  def fmtTable(title: String, header: String, rows: Seq[String]): String =
    (s"== $title ==" +: header +: rows).mkString("\n", "\n", "\n")
}
