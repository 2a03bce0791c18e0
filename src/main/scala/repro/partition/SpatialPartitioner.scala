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
  /** The vertices of each partition, ascending: `members(i)(l)` is the
    * global id of partition i's local vertex l. One counting pass.
    */
  lazy val members: Array[Array[Int]] = {
    val count = new Array[Int](k)
    part.foreach(i => count(i) += 1)
    val ms = count.map(new Array[Int](_))
    java.util.Arrays.fill(count, 0)
    var v = 0
    while (v < part.length) { val i = part(v); ms(i)(count(i)) = v; count(i) += 1; v += 1 }
    ms
  }

  /** Each vertex's local id: its index in `members(part(v))`. */
  lazy val localId: Array[Int] = {
    val loc = new Array[Int](part.length)
    members.foreach(ms => { var l = 0; while (l < ms.length) { loc(ms(l)) = l; l += 1 } })
    loc
  }

  private lazy val boundaries: Array[Array[Int]] = members.map(_.filter(boundary))

  /** Boundary vertex ids of partition i, ascending (a shared array). */
  def boundaryOf(i: Int): Array[Int] = boundaries(i)

  def boundaryCount: Int = boundary.count(identity)
}

/** A graph's undirected edges split by a partition: `intra(i)` has both
  * endpoints in partition i, in its local ids ([[PartitionResult.localId]]);
  * `inter` has them in different partitions, in global ids.
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

  /** The undirected edges of g split by partition in one pass over its
    * arcs, each list in `g.undirectedEdges` order; the intra edges are
    * written in local ids.
    */
  def splitEdges(g: RoadGraph, pr: PartitionResult): EdgeSplit = {
    val ids = pr.localId
    val intra = Array.fill(pr.k)(Vector.newBuilder[(Int, Int, Int)])
    val inter = Vector.newBuilder[(Int, Int, Int)]
    var u = 0
    while (u < g.n) {
      var a = g.off(u)
      while (a < g.off(u + 1)) {
        val x = g.dst(a)
        if (u < x) {
          val pu = pr.part(u)
          if (pu != pr.part(x)) inter += ((u, x, g.w(a)))
          else intra(pu) += ((ids(u), ids(x), g.w(a)))
        }
        a += 1
      }
      u += 1
    }
    EdgeSplit(intra.map(_.result()), inter.result())
  }

  /** Each partition's non-boundary vertices contracted out of its intra
    * edges by min degree, in local ids, in parallel (phase 1 of Theorem 2).
    */
  def contractPartitions(pr: PartitionResult, edges: EdgeSplit, threads: Int): Seq[MDE.Partial] =
    Parallel.map((0 until pr.k).toSeq, threads) { i =>
      val ms = pr.members(i)
      MDE.contract(ms.length, edges.intra(i), Array.tabulate(ms.length)(l => !pr.boundary(ms(l))))
    }

  /** Overlay graph input (Theorem 2): what each contracted partition leaves
    * among its boundary, plus the inter edges; all in global ids. Distances
    * between boundary vertices are exact.
    */
  def overlayEdges(pr: PartitionResult, edges: EdgeSplit, partials: Seq[MDE.Partial]): Seq[(Int, Int, Int)] =
    partials.zip(pr.members).flatMap { case (p, ms) =>
      p.remaining.map { case (u, x, w) => (ms(u), ms(x), w) }
    } ++ edges.inter

  def overlayEdges(pr: PartitionResult, edges: EdgeSplit, threads: Int): Seq[(Int, Int, Int)] =
    overlayEdges(pr, edges, contractPartitions(pr, edges, threads))
}
