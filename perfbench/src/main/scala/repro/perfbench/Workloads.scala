package repro.perfbench

import repro.graph.{DatasetSpec, Datasets, RoadGraph}

/** One benchmark workload: an engine on a dataset under one update traffic.
  *
  * The engine parameters, batch size, δt and R*q are pinned here rather than
  * read from `Datasets`/`Params`, and the graph's size is checked, so a
  * change to the program cannot silently change what is measured. Each run
  * spreads its batches over `forks` fresh JVMs, each constructing the
  * engine `setups` times. More JVMs average out JVM-to-JVM variation, but
  * each pays a cold construction and warm-up, which on EC-lite costs more
  * than the batches it would add.
  */
final case class Workload(
    name: String,
    engine: String, // "PostMHL", "PMHL" or "MHL" (the global engine)
    spec: DatasetSpec,
    nV: Int,
    nE: Int,
    batchSize: Int,
    deltaT: Double,
    rqStar: Double,
    k: Int,    // PMHL partition number
    tau: Int,  // PostMHL bandwidth
    ke: Int,   // PostMHL expected partition number
    forks: Int,
    setups: Int,
)

object Workloads {
  /** Maintenance threads, passed explicitly to every engine. */
  val Threads = 4

  // Why each workload: see perfbench/README.md and BENCHMARK.json.
  val all: Seq[Workload] = Seq(
    // PostMHL on write-heavy EC-lite traffic: U2 shortcuts dominate t_u.
    Workload("postmhl-ec", "PostMHL", Datasets.EC, 30144, 53776, 30144 / 50, 6.0, 0.05,
      k = 16, tau = 52, ke = 32, forks = 1, setups = 2),
    // PMHL on the same traffic: partition, overlay, computeD, cross-boundary.
    Workload("pmhl-ec", "PMHL", Datasets.EC, 30144, 53776, 30144 / 50, 6.0, 0.05,
      k = 16, tau = 52, ke = 32, forks = 1, setups = 2),
    // Global MHL on read-mostly FLA-lite traffic: label update dominates.
    Workload("mhl-fla-small", "MHL", Datasets.FLA, 10720, 18979, 10720 / 500, 3.0, 0.01,
      k = 8, tau = 44, ke = 32, forks = 3, setups = 1),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))

  /** Upper weight bound of the generated traffic; n·cap stays below
    * `TD.Inf` on every workload graph, so path sums never reach it.
    */
  val WeightCap = 10000
}

/** Seeded update traffic of §VII: each batch picks `batchSize` distinct
  * edges and halves (minimum 1) or doubles (maximum `cap`) each weight with
  * equal probability. The stream tracks weights itself, so it depends only
  * on the initial graph and the seed.
  */
final class UpdateStream(g: RoadGraph, batchSize: Int, cap: Int, seed: Long) {
  private val edges = g.undirectedEdges
  require(batchSize <= edges.length, "batch larger than the edge set")
  private val us = edges.map(_._1).toArray
  private val vs = edges.map(_._2).toArray
  private val ws = edges.map(e => math.min(cap, e._3)).toArray
  private val idx = Array.range(0, edges.length)
  private val rnd = new java.util.SplittableRandom(seed)

  def next(): IndexedSeq[(Int, Int, Int)] =
    (0 until batchSize).map { i =>
      // Partial Fisher-Yates: the first batchSize slots are distinct edges.
      val j = i + rnd.nextInt(idx.length - i)
      val e = idx(j); idx(j) = idx(i); idx(i) = e
      val nw = if (rnd.nextBoolean()) math.max(1, ws(e) / 2) else math.min(cap, ws(e) * 2)
      ws(e) = nw
      (us(e), vs(e), nw)
    }
}

/** Seeded query pairs as two parallel arrays (no boxing in timing loops). */
final class Pairs(val s: Array[Int], val t: Array[Int]) {
  def length: Int = s.length
}

object Pairs {
  def apply(n: Int, count: Int, seed: Long): Pairs = {
    val rnd = new java.util.SplittableRandom(seed)
    val s = new Array[Int](count); val t = new Array[Int](count)
    for (i <- 0 until count) { s(i) = rnd.nextInt(n); t(i) = rnd.nextInt(n) }
    new Pairs(s, t)
  }
}
