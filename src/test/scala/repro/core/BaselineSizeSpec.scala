package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.{DCHSolution, DH2HSolution, MHLSolution}
import repro.core.td.MDE
import repro.graph.Datasets

/** The global baselines' index sizes on FLA-lite, the benchmark's
  * `mhl-fla-small` graph: MHL and DH2H hold the same shortcuts and labels,
  * DCH the shortcuts alone.
  */
class BaselineSizeSpec extends AnyFunSuite {

  test("MHL and DH2H index sizes on FLA-lite are 2,789,246; DCH's is the MDE slot count") {
    val g = Datasets.FLA.build()
    assert(new MHLSolution(g).indexEntries == 2789246L)
    assert(new DH2HSolution(g).indexEntries == 2789246L)
    assert(new DCHSolution(g).indexEntries == MDE.decompose(g.n, g.undirectedEdges).slotCount)
  }
}
