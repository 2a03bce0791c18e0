package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, GridGen}
import repro.core.h2h.H2HIndex
import repro.core.pmhl.PMHL
import repro.core.sp.Dijkstra
import scala.util.Random

/** Structural invariants of the PMHL cross-boundary tree T* (Algorithm 1)
  * and its one H2H index `labOv` beyond query exactness.
  */
class CrossBoundaryStructSpec extends AnyFunSuite {

  private def build(): (PMHL, repro.graph.RoadGraph) = {
    val g = GridGen.grid(6, 22, seed = 601)
    val p = new PMHL(g, 4, threads = 2)
    p.build()
    (p, g)
  }

  test("T* parents: overlay vertices keep overlay parents, others partition parents") {
    val (p, g) = build()
    for (v <- 0 until g.n) {
      if (p.boundary(v)) assert(p.parentStar(v) == p.tdOv.parent(v))
      else {
        val pl = p.tdPart(p.part(v)).parent(p.localId(v))
        assert(p.parentStar(v) == (if (pl == -1) -1 else p.members(p.part(v))(pl)))
      }
    }
  }

  test("T* depths consistent with parents and overlay depths") {
    val (p, g) = build()
    for (v <- 0 until g.n) {
      if (p.parentStar(v) == -1) assert(p.depthStar(v) == 0)
      else assert(p.depthStar(v) == p.depthStar(p.parentStar(v)) + 1)
      if (p.boundary(v)) assert(p.depthStar(v) == p.tdOv.depth(v))
    }
  }

  test("cross labels store exact global distances to T* ancestors") {
    val (p, g) = build()
    def check(ctx: String): Unit =
      for (v <- 0 until g.n if !p.boundary(v)) {
        val ds = p.labOv.dis(v)
        val truth = Dijkstra.sssp(g, v)
        // walk the ancestor chain via parentStar
        var x = v
        while (x != -1) {
          assert(ds(p.depthStar(x)) == truth(x), s"$ctx: dis*($v -> $x)")
          x = p.parentStar(x)
        }
      }
    check("build")
    for (r <- 1 to 3) {
      p.applyUpdateBatch(Datasets.updateBatch(g, 20, seed = 630 + r))
      check(s"batch $r")
    }
  }

  test("cross.query is exact on random pairs, same-partition pairs and non-boundary LCAs included") {
    val g = GridGen.grid(6, 22, seed = 601)
    val p = new PMHL(g, 4, threads = 2)
    p.build()
    val rnd = new Random(605)
    var samePart = 0; var nonBoundaryLca = 0
    def check(ctx: String): Unit =
      for (_ <- 1 to 200) {
        val s = rnd.nextInt(g.n)
        // Every other pair is drawn from s's partition.
        val t = if (rnd.nextBoolean()) rnd.nextInt(g.n) else {
          val ms = (0 until g.n).filter(p.part(_) == p.part(s))
          ms(rnd.nextInt(ms.size))
        }
        if (p.part(s) == p.part(t)) samePart += 1
        val a = p.labOv.td.lca(s, t)
        if (a != -1 && a != s && a != t && !p.boundary(a)) nonBoundaryLca += 1
        assert(p.labOv.query(s, t) == Dijkstra.query(g, s, t), s"$ctx: labOv.query($s, $t)")
      }
    check("build")
    for (r <- 1 to 3) {
      p.applyUpdateBatch(Datasets.updateBatch(g, 20, seed = 620 + r))
      check(s"batch $r")
    }
    assert(samePart > 0, "no same-partition pair sampled")
    assert(nonBoundaryLca > 0, "no sampled pair has a non-boundary T* LCA")
  }

  test("LCA of cross-partition pairs is always an overlay vertex") {
    val (p, g) = build()
    val rnd = new Random(604)
    var checked = 0
    for (_ <- 1 to 300 if checked < 100) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      if (p.part(s) != p.part(t)) {
        val a = p.labOv.td.lca(s, t)
        if (a != -1) { assert(p.boundary(a), s"LCA($s,$t)=$a not overlay"); checked += 1 }
      }
    }
    assert(checked > 0)
  }

  for (stages <- Seq(2, 5)) {
    test(s"T* carries the PCH walk (stages = $stages): partition rows of boundary vertices are dominated, bags are T* ancestors") {
      val g = GridGen.grid(6, 22, seed = 601)
      val p = new PMHL(g, 4, threads = 2, stages = stages)
      p.build()
      def isStarAncestor(a: Int, v: Int): Boolean = {
        var x = v
        while (x != -1 && p.depthStar(x) > p.depthStar(a)) x = p.parentStar(x)
        x == a
      }
      def check(ctx: String): Unit =
        for (v <- 0 until g.n) {
          val tp = p.tdPart(p.part(v)); val ms = p.members(p.part(v)); val lv = p.localId(v)
          if (p.boundary(v)) {
            for ((x, i) <- tp.bag(lv).map(ms).zipWithIndex) {
              val j = p.tdOv.slotOf(v, x)
              assert(j >= 0, s"$ctx: partition bag member $x of boundary $v not in its overlay bag")
              assert(p.tdOv.sc(v)(j) <= tp.sc(lv)(i), s"$ctx: overlay sc($v,$x) above partition sc")
            }
          } else {
            for (x <- tp.bag(lv).map(ms))
              assert(isStarAncestor(x, v), s"$ctx: bag member $x of $v is not a T* ancestor")
          }
        }
      check("build")
      for (r <- 1 to 3) {
        p.applyUpdateBatch(Datasets.updateBatch(g, 20, seed = 610 + r))
        check(s"batch $r")
      }
    }
  }

  for (stages <- Seq(4, 5)) {
    test(s"boundary rows of labOv are the overlay labels (Lemma 2, stages = $stages)") {
      val g = GridGen.grid(6, 22, seed = 601)
      val p = new PMHL(g, 4, threads = 2, stages = stages)
      p.build()
      def check(ctx: String): Unit = {
        // tdOv's shortcut arrays are kept current by U2.
        val fresh = new H2HIndex(p.tdOv); fresh.build()
        for (v <- 0 until g.n) {
          if (p.boundary(v))
            assert(java.util.Arrays.equals(p.labOv.dis(v), fresh.dis(v)), s"$ctx: boundary row $v")
          else if (stages == 4) assert(p.labOv.dis(v) == null, s"$ctx: non-boundary row $v")
        }
        if (stages == 4) assert(p.cross == null)
      }
      check("build")
      for (r <- 1 to 3) {
        p.applyUpdateBatch(Datasets.updateBatch(g, 20, seed = 640 + r))
        check(s"batch $r")
      }
    }
  }

  test("U5 relabels partitions whose attach chains changed although their shortcuts did not") {
    val g = GridGen.grid(6, 22, seed = 601)
    val p = new PMHL(g, 4, threads = 2)
    p.build()
    val inter = g.undirectedEdges.filter { case (u, v, _) => p.part(u) != p.part(v) }
    val rnd = new Random(650)
    for (r <- 1 to 3) {
      // Inter-partition edges only: no partition's shortcuts change in U2.
      val batch = rnd.shuffle(inter).take(10).map { case (u, v, _) =>
        val w = g.weight(u, v)
        (u, v, if (rnd.nextBoolean()) math.max(1, w / 2) else math.min(w.toLong * 2, g.maxWeight).toInt)
      }
      val before = p.labOv.dis.clone()
      p.applyUpdateBatch(batch)
      val fresh = new PMHL(g.copyWeights(), 4, threads = 2)
      fresh.build()
      assert((0 until g.n).exists(v => !p.boundary(v) && !java.util.Arrays.equals(before(v), fresh.labOv.dis(v))),
        s"batch $r moved no cross-boundary row")
      for (v <- 0 until g.n)
        assert(java.util.Arrays.equals(p.labOv.dis(v), fresh.labOv.dis(v)), s"batch $r: row $v")
    }
  }
}
