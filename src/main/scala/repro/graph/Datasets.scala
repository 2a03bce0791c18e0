package repro.graph

import scala.util.Random

/** The 8 synthetic "-lite" datasets mirroring Table I of the paper.
  *
  * Each is a corridor grid (GridGen) at roughly 1/100 the paper's vertex
  * count (1/400 for CTR/USA, which the paper itself runs with slacked
  * parameters). `k` is PMHL's partition number, `ke`/`tau` are PostMHL's
  * expected partition number and bandwidth — the same roles as the last
  * three columns of Table I, with tau rescaled to our treewidth (~grid
  * width) since the paper's tau (100–400) tracks their treewidth.
  */
final case class DatasetSpec(
    name: String,
    paperName: String,
    paperV: Long,
    width: Int,
    length: Int,
    k: Int,
    ke: Int,
    tau: Int,
    seed: Long,
) {
  def nVertices: Int = width * length
  def build(): RoadGraph = {
    val g = GridGen.grid(width, length, seed)
    require(GridGen.isConnected(g), s"dataset $name not connected")
    g
  }
}

/** Dataset registry + the paper's update-batch workload generator. */
object Datasets {

  val NY  = DatasetSpec("NY-lite",  "New York City",  264346L, 36, 74,  8, 32, 40, 101)
  val GD  = DatasetSpec("GD-lite",  "Guangdong",      938957L, 40, 236, 8, 32, 44, 102)
  val FLA = DatasetSpec("FLA-lite", "Florida",       1070376L, 40, 268, 8, 32, 44, 103)
  val SC  = DatasetSpec("SC-lite",  "South China",   1326091L, 44, 302, 32, 64, 48, 104)
  val EC  = DatasetSpec("EC-lite",  "East China",    3008173L, 48, 628, 16, 32, 52, 105)
  val W   = DatasetSpec("W-lite",   "Western USA",   6262104L, 48, 840, 16, 32, 52, 106)
  val CTR = DatasetSpec("CTR-lite", "Central USA",  14081816L, 52, 680, 32, 64, 56, 107)
  val USA = DatasetSpec("USA-lite", "Full USA",     23947347L, 52, 900, 32, 64, 56, 108)

  val all: Seq[DatasetSpec] = Seq(NY, GD, FLA, SC, EC, W, CTR, USA)

  def byName(name: String): DatasetSpec =
    all.find(_.name == name).getOrElse(sys.error(s"unknown dataset $name"))

  /** Default update volume: |V|/50, i.e. 2% of vertices (at least 10);
    * perfbench's EC-lite workloads use the same volume. The paper's fixed
    * |U|=1000 would be a vanishing share at 1/100 graph scale, so the batch
    * scales with the graph instead. Exp 5 sweeps {0.5, 1, 3, 5}× this
    * default, mirroring {500, 1000, 3000, 5000}.
    */
  def defaultUpdateVolume(spec: DatasetSpec): Int = math.max(10, spec.nVertices / 50)

  /** One update batch following §VII: `count` distinct random edges; each
    * halves (min 1) or doubles (max `g.maxWeight`) its weight with equal
    * probability. Returns (u, v, newWeight) triples; deterministic in
    * (graph, seed).
    */
  def updateBatch(g: RoadGraph, count: Int, seed: Long): IndexedSeq[(Int, Int, Int)] = {
    val rnd = new Random(seed)
    val edges = g.undirectedEdges
    val picked = rnd.shuffle(edges.indices.toVector).take(math.min(count, edges.size))
    picked.map { i =>
      val (u, v, w) = edges(i)
      val nw = if (rnd.nextBoolean()) math.max(1, w / 2) else math.min(w.toLong * 2, g.maxWeight).toInt
      (u, v, nw)
    }
  }

  /** Apply a batch to the graph in place (U-Stage 1 of every solution). */
  def applyBatch(g: RoadGraph, batch: Seq[(Int, Int, Int)]): Unit =
    batch.foreach { case (u, v, w) => g.setWeight(u, v, w) }
}
