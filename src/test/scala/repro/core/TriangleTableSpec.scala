package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GridGen
import repro.core.pmhl.PMHL
import repro.core.td.{MDE, TD}
import scala.util.Random

/** The triangle table MDE emits beside `supporters`: each supporter's
  * packed slot pair (`supSlots`) must agree with the bags it indexes, and
  * there must be one supporter entry per pair inside a bag.
  */
class TriangleTableSpec extends AnyFunSuite {

  private def checkTriangles(td: TD, ctx: String): Unit = {
    var triangles = 0L
    for (o <- 0 until td.n; i <- td.bag(o).indices) {
      val x = td.bag(o)(i)
      val sups = td.supporters(o)(i)
      assert(td.supSlots(o)(i).length == sups.length, s"$ctx slot ($o,$x)")
      for (j <- sups.indices) {
        val w = sups(j); val at = td.supSlots(o)(i)(j)
        assert(at >>> 16 == td.slotOf(w, o), s"$ctx supporter $w of ($o,$x): owner half")
        assert((at & 0xffff) == td.slotOf(w, x), s"$ctx supporter $w of ($o,$x): other half")
      }
      triangles += sups.length
    }
    // every supporter entry is one triangle of its supporter's bag
    val pairs = td.bag.map(b => b.length.toLong * (b.length - 1) / 2).sum
    assert(pairs == triangles, s"$ctx: $pairs bag pairs, $triangles supporter entries")
  }

  test("triangle tables on grids and random graphs") {
    for (g <- Seq(GridGen.grid(6, 9, seed = 1), GridGen.grid(5, 20, seed = 2),
                  GridGen.randomConnected(70, 50, seed = 3), GridGen.randomConnected(30, 5, seed = 4)))
      checkTriangles(MDE.decompose(g.n, g.undirectedEdges), s"n=${g.n}")
  }

  test("triangle tables under boundary-first forcedLast and forcedRank orders") {
    val g = GridGen.grid(6, 10, seed = 7)
    val forced = new Array[Boolean](g.n)
    val fr = new Array[Int](g.n)
    new Random(8).shuffle((0 until g.n).toList).take(14).zipWithIndex.foreach { case (v, i) =>
      forced(v) = true; fr(v) = i
    }
    checkTriangles(MDE.decompose(g.n, g.undirectedEdges, forcedLast = forced), "forcedLast")
    checkTriangles(MDE.decompose(g.n, g.undirectedEdges, forcedLast = forced, forcedRank = fr),
      "forcedRank")
    val all = Array.fill(g.n)(true)
    val td = MDE.decompose(g.n, g.undirectedEdges)
    checkTriangles(MDE.decompose(g.n, g.undirectedEdges, forcedLast = all, forcedRank = td.rank),
      "fixed order")
  }

  test("triangle tables of PMHL's overlay TD and local-id partition TDs") {
    val g = GridGen.grid(6, 24, seed = 9)
    val p = new PMHL(g, 4, threads = 2)
    p.build()
    checkTriangles(p.tdOv, "overlay")
    for (i <- 0 until p.k) {
      assert(p.tdPart(i).n == p.members(i).length, s"partition $i TD is not in local ids")
      checkTriangles(p.tdPart(i), s"partition $i")
    }
  }

  test("triangle tables on a dense graph whose bags exceed 50 members") {
    val g = GridGen.randomConnected(120, 2500, seed = 10)
    val td = MDE.decompose(g.n, g.undirectedEdges)
    assert(td.maxBagSize > 50, s"max bag ${td.maxBagSize}")
    checkTriangles(td, "dense")
  }
}
