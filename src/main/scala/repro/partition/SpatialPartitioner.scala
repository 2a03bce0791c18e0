package repro.partition

import repro.graph.RoadGraph
import repro.core.td.MDE
import repro.util.Parallel

/** Result of a planar graph partitioning (§III-C).
  *
  * @param k        number of partitions
  * @param part     partition id per vertex (home partition — boundary
  *                 vertices keep the id of the side they were assigned to)
  * @param boundary flags: vertex has a neighbor in another partition
  */
final case class PartitionResult(k: Int, part: Array[Int], boundary: Array[Boolean]) {
  /** Boundary vertex ids of partition i, ascending. */
  def boundaryOf(i: Int): Array[Int] =
    part.indices.filter(v => part(v) == i && boundary(v)).toArray

  /** All vertices of partition i. */
  def verticesOf(i: Int): Array[Int] = part.indices.filter(part(_) == i).toArray

  def boundaryCount: Int = boundary.count(identity)
}

/** A graph's undirected edges split by a partition: `intra(i)` has both
  * endpoints in partition i, `inter` has them in different partitions.
  */
final case class EdgeSplit(intra: Array[IndexedSeq[(Int, Int, Int)]], inter: IndexedSeq[(Int, Int, Int)])

/** PUNCH [61] stand-in: balanced recursive coordinate bisection (DESIGN.md
  * §2). Splits the vertex set along the wider coordinate axis into
  * contiguous halves sized proportionally to the partition counts assigned
  * to each side — on road-like planar graphs this yields balanced
  * partitions with small cuts, which is the property PMHL needs.
  */
object SpatialPartitioner {

  def partition(g: RoadGraph, k: Int): PartitionResult = {
    require(k >= 1)
    val part = new Array[Int](g.n)
    var nextId = 0

    def assign(vs: Array[Int], kHere: Int): Unit = {
      if (kHere == 1) {
        val id = nextId; nextId += 1
        vs.foreach(part(_) = id)
        return
      }
      val minX = vs.map(g.xs(_)).min; val maxX = vs.map(g.xs(_)).max
      val minY = vs.map(g.ys(_)).min; val maxY = vs.map(g.ys(_)).max
      val byX = (maxX - minX) >= (maxY - minY)
      val sorted = vs.sortBy(v => (if (byX) g.xs(v) else g.ys(v), v))
      val kLeft = kHere / 2
      val cut = (sorted.length.toLong * kLeft / kHere).toInt
      assign(sorted.take(cut), kLeft)
      assign(sorted.drop(cut), kHere - kLeft)
    }

    assign((0 until g.n).toArray, k)
    val boundary = new Array[Boolean](g.n)
    for (v <- 0 until g.n)
      g.foreachNeighbor(v) { (u, _) => if (part(u) != part(v)) boundary(v) = true }
    PartitionResult(k, part, boundary)
  }

  /** The undirected edges of g split by partition in one pass, each list
    * in `g.undirectedEdges` order.
    */
  def splitEdges(g: RoadGraph, pr: PartitionResult): EdgeSplit = {
    val intra = Array.fill(pr.k)(Vector.newBuilder[(Int, Int, Int)])
    val inter = Vector.newBuilder[(Int, Int, Int)]
    g.undirectedEdges.foreach { e =>
      val pu = pr.part(e._1)
      if (pu == pr.part(e._2)) intra(pu) += e else inter += e
    }
    EdgeSplit(intra.map(_.result()), inter.result())
  }

  /** Overlay graph input (Theorem 2): each partition's non-boundary
    * vertices contracted out of its intra edges, in parallel, plus the
    * inter edges. Distances between boundary vertices are exact.
    */
  def overlayEdges(g: RoadGraph, pr: PartitionResult, edges: EdgeSplit,
                   threads: Int): Seq[(Int, Int, Int)] = {
    val contracted = Parallel.map((0 until pr.k).toSeq, threads) { i =>
      val contract = Array.tabulate(g.n)(v => pr.part(v) == i && !pr.boundary(v))
      MDE.phase1(g.n, edges.intra(i), contract)
    }
    contracted.flatten ++ edges.inter
  }
}
