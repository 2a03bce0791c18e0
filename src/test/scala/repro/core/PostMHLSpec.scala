package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, GridGen, RoadGraph}
import repro.core.postmhl.PostMHL
import repro.core.td.MDE
import repro.core.h2h.H2HIndex
import repro.core.sp.Dijkstra
import repro.partition.TDPartitioner
import scala.util.Random

/** PostMHL: Algorithm-2 partitioning invariants, Algorithm-4 index
  * equivalence to plain H2H, and exactness of every query stage across
  * maintenance rounds.
  */
class PostMHLSpec extends AnyFunSuite {

  test("TD-partitioning invariants (Algorithm 2)") {
    val g = GridGen.grid(7, 30, seed = 81)
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val tau = 12; val ke = 8
    val tdp = TDPartitioner.partition(td, tau, ke, 0.1, 2.0)
    assert(tdp.k > 0, "no partitions formed — tune test parameters")
    val n = g.n
    for ((r, i) <- tdp.roots.zipWithIndex) {
      // bandwidth constraint on the root bag
      assert(td.bag(r).length <= tau)
      // size constraint
      val size = (0 until n).count(tdp.partOf(_) == i)
      assert(size >= (0.1 * n / ke).floor.toInt && size <= math.ceil(2.0 * n / ke).toInt,
        s"partition $i size $size")
      // partition = root + descendants, boundary = bag(root) all overlay
      for (v <- 0 until n if tdp.partOf(v) == i)
        assert(td.isAncestorOrSelf(r, v))
      td.bag(r).foreach(b => assert(tdp.partOf(b) == -1, s"boundary $b not overlay"))
    }
    // roots pairwise non-ancestor
    for (a <- tdp.roots; b <- tdp.roots if a != b)
      assert(!td.isAncestorOrSelf(a, b))
    // overlay is upward-closed: parent of an overlay vertex is overlay
    for (v <- 0 until n if tdp.partOf(v) == -1 && td.parent(v) != -1)
      assert(tdp.partOf(td.parent(v)) == -1)
    // in-partition bags stay inside partition ∪ boundary
    for (v <- 0 until n if tdp.partOf(v) != -1; x <- td.bag(v))
      assert(tdp.partOf(x) == tdp.partOf(v) || td.bag(tdp.roots(tdp.partOf(v))).contains(x),
        s"bag member $x of $v escapes")
  }

  test("PostMHL labels equal plain H2H labels (Remark 2 equivalence)") {
    val g = GridGen.grid(6, 25, seed = 82)
    val p = new PostMHL(g, tau = 12, ke = 8, betaL = 0.1, betaU = 2.0, threads = 4)
    assert(p.k > 0)
    val h = new H2HIndex(p.td); h.build()
    for (v <- 0 until g.n)
      assert(h.dis(v).sameElements(p.dis(v)), s"label mismatch at $v")
  }

  private def checkStages(p: PostMHL, g: RoadGraph, rnd: Random, pairs: Int, ctx: String): Unit = {
    for (_ <- 1 to pairs) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      val truth = Dijkstra.query(g, s, t)
      assert(p.queryBiDijkstra(s, t) == truth, s"$ctx BiDij ($s,$t)")
      assert(p.queryPCH(s, t) == truth, s"$ctx PCH ($s,$t)")
      assert(p.queryPost(s, t) == truth, s"$ctx Post ($s,$t)")
      assert(p.queryFull(s, t) == truth, s"$ctx Full ($s,$t)")
    }
  }

  test("PostMHL exact after build and maintenance rounds") {
    val g = GridGen.grid(6, 30, seed = 83)
    val p = new PostMHL(g, tau = 12, ke = 8, betaL = 0.1, betaU = 2.0, threads = 4)
    assert(p.k >= 2, s"want multiple partitions, got k=${p.k}")
    val rnd = new Random(84)
    checkStages(p, g, rnd, 150, "initial")
    for (r <- 1 to 4) {
      val batch = Datasets.updateBatch(g, 25, seed = 1000 + r)
      val times = p.applyUpdateBatch(batch)
      assert(times.t.sameElements(times.t.sorted), "cumulative stage times")
      checkStages(p, g, rnd, 150, s"round $r")
    }
    // after maintenance the labels still equal a fresh H2H rebuild
    val h = new H2HIndex(p.td); h.build()
    for (v <- 0 until g.n)
      assert(h.dis(v).sameElements(p.dis(v)), s"post-update label mismatch at $v")
  }

  test("PostMHL on random graph with updates") {
    val g = GridGen.randomConnected(150, 100, seed = 85)
    val p = new PostMHL(g, tau = 15, ke = 6, betaL = 0.05, betaU = 3.0, threads = 2)
    val rnd = new Random(86)
    checkStages(p, g, rnd, 100, "initial")
    for (r <- 1 to 3) {
      val batch = Datasets.updateBatch(g, 15, seed = 2000 + r)
      p.applyUpdateBatch(batch)
      checkStages(p, g, rnd, 100, s"round $r")
    }
  }

  test("PostMHL degenerates to plain H2H when no partition qualifies (k=0)") {
    val g = GridGen.grid(4, 8, seed = 87)
    // tau=0 means no root candidate has an empty bag except forest roots
    val p = new PostMHL(g, tau = 0, ke = 4, betaL = 0.1, betaU = 2.0, threads = 2)
    val rnd = new Random(88)
    for (_ <- 1 to 60) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      val truth = Dijkstra.query(g, s, t)
      assert(p.queryPost(s, t) == truth)
      assert(p.queryFull(s, t) == truth)
    }
    val batch = Datasets.updateBatch(g, 10, seed = 89)
    p.applyUpdateBatch(batch)
    for (_ <- 1 to 60) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      assert(p.queryFull(s, t) == Dijkstra.query(g, s, t))
    }
  }

  test("disB stores exact global distances to partition boundaries") {
    val g = GridGen.grid(6, 20, seed = 90)
    val p = new PostMHL(g, tau = 12, ke = 8, betaL = 0.1, betaU = 2.0, threads = 2)
    assert(p.k > 0)
    val rnd = new Random(91)
    val inPart = (0 until g.n).filter(p.partOf(_) != -1)
    for (_ <- 1 to 40) {
      val v = inPart(rnd.nextInt(inPart.size))
      val i = p.partOf(v)
      for ((b, j) <- p.partB(i).zipWithIndex)
        assert(p.disB(v)(j) == Dijkstra.query(g, v, b), s"disB($v)($b)")
    }
  }

  test("boundary arrays and same-partition queries stay exact as overlay boundary labels change") {
    val g = GridGen.grid(6, 30, seed = 93)
    val p = new PostMHL(g, tau = 12, ke = 8, betaL = 0.1, betaU = 2.0, threads = 4)
    assert(p.k >= 2, s"want multiple partitions, got k=${p.k}")
    // D is read off the overlay labels: partB(i) must lie on roots(i)'s
    // ancestor chain in strictly ascending depth.
    for (i <- 0 until p.k) {
      val chain = p.td.ancestorChain(p.roots(i)).toSet
      val bs = p.partB(i)
      assert(bs.forall(chain.contains), s"partB($i) leaves the root's ancestor chain")
      assert(bs.indices.drop(1).forall(j => p.td.depth(bs(j - 1)) < p.td.depth(bs(j))),
        s"partB($i) not in ascending depth")
    }
    val members = (0 until p.k).map(i => (0 until g.n).filter(p.partOf(_) == i))
    val boundaryVs = p.partB.flatten.distinct
    val rnd = new Random(94)
    var boundaryLabelsChanged = 0
    for (r <- 1 to 5) {
      val before = boundaryVs.map(b => p.dis(b).clone())
      p.applyUpdateBatch(Datasets.updateBatch(g, 40, seed = 3000 + r))
      boundaryLabelsChanged += boundaryVs.indices.count(j => !before(j).sameElements(p.dis(boundaryVs(j))))
      for (i <- 0 until p.k) {
        val fromB = p.partB(i).map(Dijkstra.sssp(g, _))
        for (v <- members(i); j <- p.partB(i).indices)
          assert(p.disB(v)(j) == fromB(j)(v), s"round $r disB($v)(${p.partB(i)(j)})")
        for (_ <- 1 to 30) {
          val s = members(i)(rnd.nextInt(members(i).size)); val t = members(i)(rnd.nextInt(members(i).size))
          assert(p.queryPost(s, t) == Dijkstra.query(g, s, t), s"round $r Post ($s,$t)")
        }
      }
    }
    assert(boundaryLabelsChanged > 0, "no batch changed a boundary label, so U4 never rebuilt a partition")
  }

  test("bandwidth sweep changes overlay size monotonically (Exp 8 mechanism)") {
    val g = GridGen.grid(8, 40, seed = 92)
    val ovCounts = Seq(6, 10, 16).map { tau =>
      new PostMHL(g, tau, ke = 8, betaL = 0.05, betaU = 3.0, threads = 2).overlayCount
    }
    // larger bandwidth admits more roots higher in the tree → smaller overlay
    assert(ovCounts.head >= ovCounts.last,
      s"overlay counts $ovCounts not decreasing with tau")
  }
}
