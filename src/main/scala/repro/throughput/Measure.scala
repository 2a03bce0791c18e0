package repro.throughput

import repro.graph.DatasetSpec
import scala.util.Random

/** Measurement harness shared by the benchmark suites: random query pairs
  * and per-query wall times of a released stage (one warm-up pass, one
  * measured pass), from which [[StageProfile]]s are built.
  */
object Measure {

  def randomPairs(n: Int, count: Int, seed: Long): IndexedSeq[(Int, Int)] = {
    val rnd = new Random(seed)
    IndexedSeq.fill(count)((rnd.nextInt(n), rnd.nextInt(n)))
  }

  /** Per-query wall seconds over `pairs` (after one warm-up pass). */
  def sampleTimes(fn: (Int, Int) => Int, pairs: IndexedSeq[(Int, Int)]): Array[Double] = {
    var sink = 0L
    pairs.foreach { case (s, t) => sink += fn(s, t) } // warm-up
    val out = new Array[Double](pairs.length)
    var i = 0
    while (i < pairs.length) {
      val (s, t) = pairs(i)
      val t0 = System.nanoTime()
      sink += fn(s, t)
      out(i) = (System.nanoTime() - t0) / 1e9
      i += 1
    }
    if (sink == Long.MinValue) println(sink) // defeat dead-code elimination
    out
  }
}

/** Table II parameters, rescaled to this reproduction (DESIGN.md §2):
  * query/update times here are orders of magnitude smaller than the
  * paper's C++-on-24M-vertices setting, so the update interval and QoS
  * are scaled by ~1/100 to land the same t_u/δt and t_q/R*q regimes.
  */
object Params {
  /** Update-volume multipliers mirroring |U| ∈ {500, 1000, 3000, 5000}. */
  val updateVolumeFactors: Seq[Double] = Seq(0.5, 1.0, 3.0, 5.0)
  /** Update intervals (s) mirroring δt ∈ {60, 120, 300, 600}. */
  val deltaTs: Seq[Double] = Seq(0.6, 1.2, 3.0, 6.0)
  /** QoS response times (s) mirroring R*q ∈ {0.5, 1.0, 1.5, 2.0}. */
  val rqStars: Seq[Double] = Seq(0.005, 0.010, 0.015, 0.020)

  /** Default interval: the paper's bold default is 120 s; a 1/40 scale
    * (3.0 s) rather than 1/100 keeps the fast indexes' update time well
    * inside the interval while the slow ones still cross it on large
    * datasets — the same discriminating position the paper's default has
    * (see EXPERIMENTS.md calibration note).
    */
  val defaultDeltaT: Double = 3.0
  val defaultRqStar: Double = 0.010

  /** Slacked setting (paper: δt=600 → 6, R*q=5 → 0.05) for the datasets
    * where "all algorithms suffer from almost zero throughput in the
    * default setting" — the paper applies it to CTR/USA; at our scale the
    * same situation starts at EC (update times are a larger fraction of
    * the rescaled interval than in the paper, see EXPERIMENTS.md).
    */
  private val slacked = Set("EC-lite", "W-lite", "CTR-lite", "USA-lite")
  def deltaTFor(spec: DatasetSpec): Double =
    if (slacked(spec.name)) 6.0 else defaultDeltaT
  def rqStarFor(spec: DatasetSpec): Double =
    if (slacked(spec.name)) 0.05 else defaultRqStar
}
