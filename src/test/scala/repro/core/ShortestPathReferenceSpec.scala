package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.sp.{BiDijkstra, Dijkstra}
import repro.graph.{GridGen, RoadGraph}
import scala.util.Random

/** `Dijkstra.sssp`, `Dijkstra.query` and `BiDijkstra.query` share one
  * search kernel, so comparing them with each other cannot catch a fault
  * in it. Here every pair of small graphs is checked against Floyd–Warshall
  * over the raw edge list: random connected graphs, two components plus an
  * isolated vertex (unreachable pairs are `Inf`), and parallel edges that
  * `RoadGraph.fromEdges` must reduce to their minimum weight.
  */
class ShortestPathReferenceSpec extends AnyFunSuite {
  import Dijkstra.Inf

  private def floydWarshall(n: Int, edges: Seq[(Int, Int, Int)]): Array[Array[Long]] = {
    val d = Array.tabulate(n, n)((i, j) => if (i == j) 0L else Long.MaxValue / 4)
    for ((u, v, w) <- edges) { d(u)(v) = math.min(d(u)(v), w.toLong); d(v)(u) = d(u)(v) }
    for (k <- 0 until n; i <- 0 until n; j <- 0 until n)
      if (d(i)(k) + d(k)(j) < d(i)(j)) d(i)(j) = d(i)(k) + d(k)(j)
    d
  }

  private def checkAllPairs(n: Int, edges: Seq[(Int, Int, Int)], ctx: String): Int = {
    val g = RoadGraph.fromEdges(n, edges)
    val fw = floydWarshall(n, edges)
    var unreachable = 0
    for (s <- 0 until n) {
      val row = Dijkstra.sssp(g, s)
      for (t <- 0 until n) {
        val truth = if (fw(s)(t) >= Long.MaxValue / 4) Inf else fw(s)(t).toInt
        if (truth == Inf) unreachable += 1
        assert(row(t) == truth, s"$ctx sssp($s)($t)")
        assert(Dijkstra.query(g, s, t) == truth, s"$ctx Dijkstra.query($s,$t)")
        assert(BiDijkstra.query(g, s, t) == truth, s"$ctx BiDijkstra.query($s,$t)")
      }
    }
    unreachable
  }

  test("random connected graphs: every pair equals Floyd–Warshall") {
    for (seed <- 1 to 12) {
      val n = 2 + seed * 3
      val g = GridGen.randomConnected(n, extraEdges = n, seed = seed, maxW = 1 + seed * 7)
      assert(checkAllPairs(n, g.undirectedEdges, s"seed $seed") == 0)
    }
  }

  test("two components, an isolated vertex and parallel edges") {
    val rnd = new Random(1501)
    val a = GridGen.randomConnected(15, 12, seed = 31).undirectedEdges
    val b = GridGen.randomConnected(12, 10, seed = 32).undirectedEdges.map { case (u, v, w) => (u + 15, v + 15, w) }
    // Repeat some edges with other weights, in both orientations.
    val parallel = (a ++ b).filter(_ => rnd.nextInt(3) == 0).map { case (u, v, w) =>
      if (rnd.nextBoolean()) (v, u, 1 + rnd.nextInt(2 * w)) else (u, v, w + 1 + rnd.nextInt(5))
    }
    val n = 28 // vertex 27 has no edge
    val unreachable = checkAllPairs(n, rnd.shuffle(a ++ b ++ parallel), "two components")
    assert(unreachable == 2 * 15 * 12 + 2 * 27)
  }
}
