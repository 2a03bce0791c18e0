package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GridGen
import repro.core.td.{MDE, TD}
import repro.core.h2h.{BoundaryLabels, H2HIndex}
import repro.core.sp.Dijkstra
import scala.util.Random

/** The post-boundary kernels on random small inputs: the boundary
  * concatenation against brute-force minima (including `Inf` entries,
  * one-element sides, empty boundary lists and starting bounds below every
  * candidate), and the H2H recurrence at a list of depths, which PostMHL's
  * post-boundary pass runs at the boundary depths, against the full row.
  */
class BoundaryLabelsSpec extends AnyFunSuite {
  import TD.Inf

  private def dist(rnd: Random): Int = if (rnd.nextInt(5) == 0) Inf else rnd.nextInt(200)

  test("concat equals the brute-force minimum over boundary pairs") {
    val g = GridGen.randomConnected(40, 30, seed = 701)
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val ov = new H2HIndex(td); ov.build(); td.buildLca()
    val truth = Array.tabulate(g.n)(Dijkstra.sssp(g, _))
    val rnd = new Random(702)
    def side(): (Array[Int], Array[Int]) = rnd.nextInt(4) match {
      case 0 => (Array.emptyIntArray, Array.emptyIntArray) // no boundary (k = 1)
      case 1 => (Array(rnd.nextInt(g.n)), Array(0))        // overlay endpoint
      case _ =>
        val bs = rnd.shuffle((0 until g.n).toVector).take(1 + rnd.nextInt(6)).toArray
        (bs, bs.map(_ => dist(rnd)))
    }
    for (trial <- 1 to 400) {
      val (bS, dS) = side(); val (bT, dT) = side()
      val cands = for (p <- bS.indices; q <- bT.indices) yield dS(p) + truth(bS(p))(bT(q)) + dT(q)
      val bound = rnd.nextInt(3) match {
        case 0 => Inf
        case 1 => if (cands.isEmpty) 0 else math.max(0, cands.min - 1) // below every candidate
        case _ => rnd.nextInt(400)
      }
      val expected = (bound +: cands).min
      assert(BoundaryLabels.concat(bS, dS, bT, dT, ov, bound) == expected, s"trial $trial")
    }
  }

  test("relaxAt equals computeDis at random depth subsets") {
    val rnd = new Random(703)
    for (trial <- 1 to 20) {
      val g = GridGen.randomConnected(10 + rnd.nextInt(40), rnd.nextInt(40), seed = 710 + trial)
      val forced = Array.fill(g.n)(rnd.nextInt(4) == 0)
      val td = MDE.decompose(g.n, g.undirectedEdges, forcedLast = forced)
      val h = new H2HIndex(td); h.build()
      val pathDis = new Array[Array[Int]](td.height)
      for (v <- 0 until g.n if td.depth(v) > 0) {
        td.ancestorChain(v).foreach(a => pathDis(td.depth(a)) = h.dis(a))
        val dv = td.depth(v)
        val depths = (0 until dv).filter(_ => rnd.nextBoolean()).toArray
        val arr = Array.fill(dv + 1)(-7)
        h.relaxAt(v, pathDis, depths, arr)
        val full = h.computeDis(v, pathDis)
        for (j <- 0 to dv)
          assert(arr(j) == (if (depths.contains(j)) full(j) else -7), s"trial $trial v=$v depth $j")
        assert(depths.forall(j => full(j) == h.dis(v)(j)), s"trial $trial v=$v")
      }
    }
  }
}
