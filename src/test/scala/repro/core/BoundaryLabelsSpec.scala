package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GridGen
import repro.core.td.{MDE, TD}
import repro.core.h2h.{BoundaryLabels, H2HIndex}
import repro.core.sp.Dijkstra
import scala.util.Random

/** The shared post-boundary kernels against brute-force minima on random
  * small inputs, including `Inf` entries, one-element sides, empty
  * boundary lists and starting bounds below every candidate.
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

  test("boundaryArray equals the brute-force recurrence") {
    val rnd = new Random(703)
    for (trial <- 1 to 400) {
      val nb = rnd.nextInt(5) // 0: no boundary (k = 1)
      val n = 12
      val bag = rnd.shuffle((0 until n).toVector).take(rnd.nextInt(6)).toArray
      val sc = bag.map(_ => dist(rnd))
      val slots = bag.map(_ => if (nb > 0 && rnd.nextBoolean()) rnd.nextInt(nb) else -1)
      val d = Array.fill(nb, nb)(dist(rnd))
      val disB = Array.fill(n)(Array.fill(nb)(dist(rnd)))
      val expected = Array.tabulate(nb) { j =>
        (Inf +: bag.indices.map(k => sc(k) + (if (slots(k) >= 0) d(slots(k))(j) else disB(bag(k))(j)))).min
      }
      assert(BoundaryLabels.boundaryArray(bag, sc, slots, d, disB).sameElements(expected), s"trial $trial")
    }
  }

  test("hubMin equals the brute-force minimum over LCA bag members") {
    val rnd = new Random(704)
    for (trial <- 1 to 400) {
      val nb = rnd.nextInt(4)
      val n = 12; val h = 8
      val depth = Array.fill(n)(rnd.nextInt(h))
      val bag = rnd.shuffle((0 until n).toVector).take(rnd.nextInt(4) match {
        case 0 => 0
        case 1 => 1 // one-element bag
        case _ => 2 + rnd.nextInt(5)
      }).toArray
      val slots = bag.map(_ => if (nb > 0 && rnd.nextBoolean()) rnd.nextInt(nb) else -1)
      val ds = Array.fill(h)(dist(rnd)); val dt = Array.fill(h)(dist(rnd))
      val dsB = Array.fill(nb)(dist(rnd)); val dtB = Array.fill(nb)(dist(rnd))
      val cands = bag.indices.map { k =>
        if (slots(k) >= 0) dsB(slots(k)) + dtB(slots(k)) else ds(depth(bag(k))) + dt(depth(bag(k)))
      }
      val bound = rnd.nextInt(3) match {
        case 0 => Inf
        case 1 => if (cands.isEmpty) 0 else math.max(0, cands.min - 1)
        case _ => rnd.nextInt(400)
      }
      assert(BoundaryLabels.hubMin(bag, slots, depth, ds, dt, dsB, dtB, bound) == (bound +: cands).min,
        s"trial $trial")
    }
  }
}
