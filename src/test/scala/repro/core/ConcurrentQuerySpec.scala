package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.DCHSolution
import repro.graph.{Datasets, GridGen, RoadGraph}
import repro.core.pmhl.PMHL
import repro.core.postmhl.PostMHL
import repro.core.sp.Dijkstra
import repro.util.Parallel
import scala.util.Random

/** The CH-class query stages, PMHL's no- and post-boundary stages and
  * PostMHL's post-boundary and full stages serve several threads at once:
  * 4 threads share one built and updated index and query it while no
  * maintenance runs, and every answer equals Dijkstra.
  */
class ConcurrentQuerySpec extends AnyFunSuite {

  private val Threads = 4
  private val PerThread = 2500

  private def graph(): RoadGraph = GridGen.grid(10, 40, seed = 1201)

  private def hammer(g: RoadGraph, query: (Int, Int) => Int, name: String): Unit = {
    val rnd = new Random(1202)
    val pairs = Array.fill(250)((rnd.nextInt(g.n), rnd.nextInt(g.n)))
    val truth = pairs.map { case (s, t) => Dijkstra.query(g, s, t) }
    val wrong = new AtomicInteger()
    Parallel.run((0 until Threads).map(th => () => {
      var i = 0
      while (i < PerThread) {
        val p = (th * 61 + i) % pairs.length
        if (query(pairs(p)._1, pairs(p)._2) != truth(p)) wrong.incrementAndGet()
        i += 1
      }
    }), Threads)
    assert(wrong.get == 0, s"$name: ${wrong.get} of ${Threads * PerThread} answers differ from Dijkstra")
  }

  test("DCH's CH stage is exact under 4 concurrent query threads") {
    val sol = new DCHSolution(graph())
    val stages = sol.applyBatch(Datasets.updateBatch(sol.graph, 30, seed = 1203))
    hammer(sol.graph, stages.find(_.label == "CH").get.query, "DCH CH")
  }

  test("PostMHL.queryPCH is exact under 4 concurrent query threads") {
    val g = graph()
    val p = new PostMHL(g, 12, 8, 0.1, 2.0, threads = 2)
    p.applyUpdateBatch(Datasets.updateBatch(g, 30, seed = 1204))
    hammer(g, p.queryPCH, "PostMHL PCH")
  }

  // Q3 gathers each cross-partition endpoint's hub distances per call.
  test("PostMHL.queryPost and queryFull are exact under 4 concurrent query threads") {
    val g = graph()
    val p = new PostMHL(g, 12, 8, 0.1, 2.0, threads = 2)
    assert(p.k >= 2, s"want multiple partitions, got k=${p.k}")
    p.applyUpdateBatch(Datasets.updateBatch(g, 30, seed = 1207))
    hammer(g, p.queryPost, "PostMHL post-boundary")
    hammer(g, p.queryFull, "PostMHL full")
  }

  for (stages <- Seq(2, 5)) {
    test(s"PMHL.queryPCH (stages = $stages) is exact under 4 concurrent query threads") {
      val g = graph()
      val p = new PMHL(g, 4, threads = 2, stages = stages)
      p.build()
      p.applyUpdateBatch(Datasets.updateBatch(g, 30, seed = 1205))
      hammer(g, p.queryPCH, s"PMHL($stages) PCH")
    }
  }

  // Q3 reads the partitions' local-id indexes, Q4 the one post-boundary forest.
  for (stages <- Seq(4, 5)) {
    test(s"PMHL.queryNoBoundary and queryPostBoundary (stages = $stages) are exact under 4 concurrent query threads") {
      val g = graph()
      val p = new PMHL(g, 4, threads = 2, stages = stages)
      p.build()
      p.applyUpdateBatch(Datasets.updateBatch(g, 30, seed = 1206))
      hammer(g, p.queryNoBoundary, s"PMHL($stages) no-boundary")
      hammer(g, p.queryPostBoundary, s"PMHL($stages) post-boundary")
    }
  }
}
