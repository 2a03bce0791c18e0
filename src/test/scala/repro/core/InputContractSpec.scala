package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, GridGen, RoadGraph}
import repro.core.td.{MDE, ShortcutUpdater, TD}

/** Weight updates obey the same contract as graph construction: every
  * weight is positive and capped, so that no simple path sums to `TD.Inf`.
  * Construction also rejects endpoints outside the vertex range.
  */
class InputContractSpec extends AnyFunSuite {

  test("RoadGraph.setWeight rejects zero and negative weights") {
    val g = GridGen.grid(3, 3, seed = 1)
    val (u, v, w) = g.undirectedEdges.head
    for (bad <- Seq(0, -1, Int.MinValue))
      intercept[IllegalArgumentException] { g.setWeight(u, v, bad) }
    assert(g.weight(u, v) == w && g.weight(v, u) == w)
  }

  test("RoadGraph.setWeight rejects weights that let a simple path reach TD.Inf") {
    val g = GridGen.grid(3, 3, seed = 3)
    val (u, v, w) = g.undirectedEdges.head
    val cap = (TD.Inf - 1) / (g.n - 1) // the largest weight whose (n - 1)-fold sum stays below Inf
    for (bad <- Seq(cap + 1, TD.Inf, Int.MaxValue))
      intercept[IllegalArgumentException] { g.setWeight(u, v, bad) }
    assert(g.weight(u, v) == w && g.weight(v, u) == w)
    val c = g.copyWeights()
    c.setWeight(u, v, cap)
    assert(c.weight(u, v) == cap && c.weight(v, u) == cap)
  }

  test("RoadGraph.fromEdges rejects weights above maxWeight and endpoints outside [0, n)") {
    val n = 5
    val cap = (TD.Inf - 1) / (n - 1)
    val path = (0 until n - 1).map(i => (i, i + 1, 1))
    for (bad <- Seq(cap + 1, TD.Inf, Int.MaxValue))
      intercept[IllegalArgumentException] { RoadGraph.fromEdges(n, path :+ ((0, 2, bad))) }
    for (e <- Seq((0, n, 1), (n, 0, 1), (-1, 2, 1), (2, -1, 1)))
      intercept[IllegalArgumentException] { RoadGraph.fromEdges(n, path :+ e) }
    val g = RoadGraph.fromEdges(n, path :+ ((0, 2, cap)))
    assert(g.maxWeight == cap && g.weight(0, 2) == cap)
  }

  test("Datasets.updateBatch caps a doubled weight at the largest weight setWeight accepts") {
    val n = 6
    val cap = (TD.Inf - 1) / (n - 1)
    val g = RoadGraph.fromEdges(n, (0 until n - 1).map(i => (i, i + 1, cap)))
    var doubled = 0
    for (seed <- 0L until 8L) {
      val batch = Datasets.updateBatch(g, n - 1, seed)
      for ((_, _, w) <- batch) {
        assert(w > 0 && w <= cap, s"seed $seed: weight $w above the cap $cap")
        if (w != cap / 2) doubled += 1
      }
      Datasets.applyBatch(g.copyWeights(), batch)
    }
    assert(doubled > 0, "no batch doubled an edge")
  }

  test("ShortcutUpdater.seed rejects zero and negative weights") {
    val g = GridGen.grid(3, 3, seed = 2)
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val upd = new ShortcutUpdater(td)
    val (u, v, _) = g.undirectedEdges.head
    val base = td.base.map(_.clone())
    for (bad <- Seq(0, -1, Int.MinValue))
      intercept[IllegalArgumentException] { upd.seed(Seq((u, v, bad))) }
    for (x <- 0 until g.n) assert(td.base(x).sameElements(base(x)))
  }
}
