package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GridGen
import repro.core.td.{MDE, ShortcutUpdater}

/** Weight updates obey the same contract as graph construction: every
  * weight is positive.
  */
class InputContractSpec extends AnyFunSuite {

  test("RoadGraph.setWeight rejects zero and negative weights") {
    val g = GridGen.grid(3, 3, seed = 1)
    val (u, v, w) = g.undirectedEdges.head
    for (bad <- Seq(0, -1, Int.MinValue))
      intercept[IllegalArgumentException] { g.setWeight(u, v, bad) }
    assert(g.weight(u, v) == w && g.weight(v, u) == w)
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
