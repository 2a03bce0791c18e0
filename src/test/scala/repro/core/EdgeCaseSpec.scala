package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, GridGen, RoadGraph}
import repro.core.td.{MDE, ShortcutUpdater, TD}
import repro.core.h2h.{CHQuery, H2HIndex, UpwardGraph}
import repro.core.sp.{BiDijkstra, Dijkstra}
import repro.core.pmhl.PMHL
import repro.core.postmhl.PostMHL

/** Degenerate and boundary inputs for every layer. */
class EdgeCaseSpec extends AnyFunSuite {

  test("two-vertex graph end to end") {
    val g = RoadGraph.fromEdges(2, Seq((0, 1, 7)))
    assert(Dijkstra.query(g, 0, 1) == 7)
    assert(BiDijkstra.query(g, 0, 1) == 7)
    val td = MDE.decompose(2, g.undirectedEdges)
    val h = new H2HIndex(td); h.build()
    assert(h.query(0, 1) == 7)
    assert(new CHQuery(UpwardGraph.fromTD(td)).query(0, 1) == 7)
    g.setWeight(0, 1, 3)
    val upd = new ShortcutUpdater(td)
    h.updateSubtrees(upd.applyInputChanges(Seq((0, 1, 3))).affected)
    assert(h.query(0, 1) == 3)
  }

  test("star graph: hub vertex contracted last") {
    val n = 12
    val edges = (1 until n).map(i => (0, i, i))
    val g = RoadGraph.fromEdges(n, edges)
    val td = MDE.decompose(n, g.undirectedEdges)
    // all leaves have degree 1, center degree n-1 -> the center survives
    // to the final 2-vertex endgame (where it ties with the last leaf)
    assert(td.rank(0) >= n - 2)
    val h = new H2HIndex(td); h.build()
    for (i <- 1 until n; j <- 1 until n if i != j)
      assert(h.query(i, j) == i + j)
  }

  test("path graph has treewidth 1 bags") {
    val g = GridGen.grid(1, 30, seed = 501)
    val td = MDE.decompose(g.n, g.undirectedEdges)
    assert(td.maxBagSize <= 2)
    val h = new H2HIndex(td); h.build()
    val d = Dijkstra.sssp(g, 0)
    for (t <- 0 until g.n) assert(h.query(0, t) == d(t))
  }

  test("duplicate parallel input edges keep the min weight in MDE") {
    val td = MDE.decompose(3, Seq((0, 1, 9), (0, 1, 2), (1, 2, 5)))
    val h = new H2HIndex(td); h.build()
    assert(h.query(0, 2) == 7)
  }

  test("MDE rejects forcedRank without forcedLast, which it would ignore") {
    val g = GridGen.grid(3, 4, seed = 502)
    intercept[IllegalArgumentException] {
      MDE.decompose(g.n, g.undirectedEdges, forcedLast = null, forcedRank = Array.tabulate(g.n)(g.n - _))
    }
  }

  test("self-loop input is rejected") {
    intercept[IllegalArgumentException] { MDE.decompose(2, Seq((1, 1, 3))) }
    intercept[IllegalArgumentException] { RoadGraph.fromEdges(2, Seq((0, 0, 1))) }
  }

  test("update to a non-existent edge is rejected") {
    val g = GridGen.grid(3, 3, seed = 502)
    intercept[IllegalArgumentException] { g.setWeight(0, 8, 5) }
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val upd = new ShortcutUpdater(td)
    intercept[IllegalArgumentException] { upd.applyInputChanges(Seq((0, 8, 5))) }
  }

  test("empty update batch is a no-op for every index") {
    val g = GridGen.grid(4, 6, seed = 503)
    val p = new PMHL(g, 2, threads = 1)
    p.build()
    val before = (0 until g.n).map(v => p.labOv.query(0, v))
    val st = p.applyUpdateBatch(Seq.empty)
    assert(st.t.forall(_ >= 0))
    assert((0 until g.n).map(v => p.labOv.query(0, v)) == before)
  }

  test("idempotent update: re-applying identical weights changes nothing") {
    val g = GridGen.grid(4, 8, seed = 504)
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val upd = new ShortcutUpdater(td)
    val same = g.undirectedEdges.map { case (u, v, w) => (u, v, w) }
    val res = upd.applyInputChanges(same)
    assert(res.affected.isEmpty)
    assert(res.overlayChanges.isEmpty)
  }

  test("PMHL with k larger than sensible still works") {
    val g = GridGen.grid(3, 8, seed = 505) // 24 vertices, k=12
    val p = new PMHL(g, 12, threads = 2)
    p.build()
    val rnd = new scala.util.Random(506)
    for (_ <- 1 to 50) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      assert(p.queryCrossBoundary(s, t) == Dijkstra.query(g, s, t))
    }
  }

  test("PostMHL single-partition degenerate (huge tau, ke=1)") {
    val g = GridGen.grid(4, 10, seed = 507)
    val p = new PostMHL(g, tau = 100, ke = 1, betaL = 0.0, betaU = 10.0, threads = 1)
    val rnd = new scala.util.Random(508)
    for (_ <- 1 to 50) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      assert(p.queryFull(s, t) == Dijkstra.query(g, s, t))
    }
    val batch = Datasets.updateBatch(g, 8, seed = 509)
    p.applyUpdateBatch(batch)
    for (_ <- 1 to 50) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      assert(p.queryFull(s, t) == Dijkstra.query(g, s, t))
    }
  }

  test("extreme weights: max edge weight does not overflow") {
    val big = TD.Inf / 1000
    val g = RoadGraph.fromEdges(4, Seq((0, 1, big), (1, 2, big), (2, 3, big)))
    val td = MDE.decompose(4, g.undirectedEdges)
    val h = new H2HIndex(td); h.build()
    assert(h.query(0, 3) == 3 * big)
    assert(BiDijkstra.query(g, 0, 3) == 3 * big)
  }
}
