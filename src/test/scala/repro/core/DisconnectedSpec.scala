package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, GridGen, RoadGraph}
import repro.core.pmhl.PMHL
import repro.core.postmhl.PostMHL
import repro.core.sp.Dijkstra
import repro.core.td.TD
import scala.util.Random

/** PMHL and PostMHL on a road network of two disconnected grids: their tree
  * decompositions are forests, and every released query stage must still
  * equal Dijkstra, `Inf` across the components, after build and after each
  * update batch.
  */
class DisconnectedSpec extends AnyFunSuite {
  import DisconnectedSpec.twoGrids

  private def check(g: RoadGraph, stages: Seq[(String, (Int, Int) => Int)], ctx: String): Unit = {
    val rnd = new Random(93)
    var across = 0
    for (_ <- 1 to 200) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      val truth = Dijkstra.query(g, s, t)
      if (truth == TD.Inf) across += 1
      for ((label, q) <- stages) assert(q(s, t) == truth, s"$ctx $label ($s,$t)")
    }
    assert(across > 0, s"$ctx: no pair across the components")
  }

  private def scenario(g: RoadGraph, stages: Seq[(String, (Int, Int) => Int)], name: String)
                      (update: Seq[(Int, Int, Int)] => Unit): Unit = {
    check(g, stages, s"$name build")
    for (r <- 1 to 3) {
      update(Datasets.updateBatch(g, 20, seed = 940 + r))
      check(g, stages, s"$name batch $r")
    }
  }

  for (stages <- Seq(2, 4, 5)) {
    test(s"PMHL (stages = $stages) is exact on two disconnected grids") {
      val g = twoGrids()
      val p = new PMHL(g, k = 4, threads = 2, stages = stages)
      p.build()
      val queries = Seq[(String, (Int, Int) => Int)](
        "BiDij" -> p.queryBiDijkstra, "PCH" -> p.queryPCH, "NoB" -> p.queryNoBoundary,
        "PostB" -> p.queryPostBoundary, "CrossB" -> p.queryCrossBoundary).take(stages)
      scenario(g, queries, s"PMHL stages=$stages")(p.applyUpdateBatch(_))
    }
  }

  test("PostMHL is exact on two disconnected grids") {
    val g = twoGrids()
    val p = new PostMHL(g, tau = 10, ke = 6, betaL = 0.1, betaU = 2.0, threads = 2)
    assert(p.td.roots.length >= 2, "the tree decomposition should be a forest")
    assert(p.k >= 2, s"want several partitions, got k=${p.k}")
    val queries = Seq[(String, (Int, Int) => Int)](
      "BiDij" -> p.queryBiDijkstra, "PCH" -> p.queryPCH, "Post" -> p.queryPost,
      "Full" -> p.queryFull)
    scenario(g, queries, "PostMHL")(p.applyUpdateBatch(_))
  }
}

object DisconnectedSpec {

  /** Two grids side by side, with no edge between them. */
  def twoGrids(): RoadGraph = {
    val a = GridGen.grid(5, 16, seed = 91)
    val b = GridGen.grid(6, 12, seed = 92)
    val edges = a.undirectedEdges ++ b.undirectedEdges.map { case (u, v, w) => (u + a.n, v + a.n, w) }
    val shift = a.xs.max + 10
    RoadGraph.fromEdges(a.n + b.n, edges, a.xs ++ b.xs.map(_ + shift), a.ys ++ b.ys)
  }
}
