package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, GridGen}
import repro.core.pmhl.PMHL
import repro.core.postmhl.PostMHL
import repro.core.sp.Dijkstra
import repro.partition.{SpatialPartitioner, TDPartitioner}
import repro.core.td.MDE
import scala.util.Random

/** Parameterized PSP tests: PMHL over k values, PostMHL over (τ, k_e)
  * combinations, and partitioner invariants over parameter grids.
  */
class ParamizedPSPSpec extends AnyFunSuite {

  for (k <- Seq(2, 3, 4, 6, 8, 12)) {
    test(s"PMHL exact with k=$k after an update round") {
      val g = GridGen.grid(6, 24, seed = 310 + k)
      val p = new PMHL(g, k, threads = 2)
      p.build()
      val batch = Datasets.updateBatch(g, 20, seed = 320 + k)
      p.applyUpdateBatch(batch)
      val rnd = new Random(330 + k)
      for (_ <- 1 to 60) {
        val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
        val truth = Dijkstra.query(g, s, t)
        assert(p.queryPCH(s, t) == truth, s"PCH ($s,$t)")
        assert(p.queryNoBoundary(s, t) == truth, s"NoB ($s,$t)")
        assert(p.queryPostBoundary(s, t) == truth, s"PostB ($s,$t)")
        assert(p.queryCrossBoundary(s, t) == truth, s"CrossB ($s,$t)")
      }
    }
  }

  for ((tau, ke) <- Seq((8, 4), (10, 6), (12, 8), (15, 12), (20, 6), (6, 16))) {
    test(s"PostMHL exact with tau=$tau ke=$ke after an update round") {
      val g = GridGen.grid(6, 28, seed = 340 + tau)
      val p = new PostMHL(g, tau, ke, 0.05, 3.0, threads = 2)
      val batch = Datasets.updateBatch(g, 20, seed = 350 + ke)
      p.applyUpdateBatch(batch)
      val rnd = new Random(360 + tau)
      for (_ <- 1 to 60) {
        val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
        val truth = Dijkstra.query(g, s, t)
        assert(p.queryPCH(s, t) == truth, s"PCH ($s,$t)")
        assert(p.queryPost(s, t) == truth, s"Post ($s,$t)")
        assert(p.queryFull(s, t) == truth, s"Full ($s,$t)")
      }
    }
  }

  for (k <- Seq(2, 3, 5, 8, 16)) {
    test(s"spatial partitioner invariants for k=$k") {
      val g = GridGen.grid(8, 25, seed = 370)
      val pr = SpatialPartitioner.partition(g, k)
      assert(pr.part.forall(p => p >= 0 && p < k))
      assert((0 until k).forall(i => pr.part.count(_ == i) > 0), "no empty partition")
      // balance: each partition within 3x of ideal
      val ideal = g.n.toDouble / k
      for (i <- 0 until k) {
        val sz = pr.part.count(_ == i)
        assert(sz > ideal / 3 && sz < ideal * 3, s"partition $i size $sz vs ideal $ideal")
      }
      // boundary flags exactly the vertices with cross-partition neighbors
      for (v <- 0 until g.n) {
        var cross = false
        g.foreachNeighbor(v)((u, _) => if (pr.part(u) != pr.part(v)) cross = true)
        assert(pr.boundary(v) == cross, s"boundary flag wrong at $v")
      }
      // inter edges touch two different partitions, intra edges one
      val edges = SpatialPartitioner.splitEdges(g, pr)
      edges.inter.foreach { case (u, v, _) =>
        assert(pr.part(u) != pr.part(v))
      }
      for (i <- 0 until k) {
        val ms = pr.members(i)
        edges.intra(i).foreach { case (u, v, _) =>
          assert(pr.part(ms(u)) == i && pr.part(ms(v)) == i)
        }
      }
    }
  }

  for ((tau, ke) <- Seq((10, 4), (12, 8), (15, 16), (8, 32))) {
    test(s"TD-partitioning respects constraints for tau=$tau ke=$ke") {
      val g = GridGen.grid(7, 32, seed = 380)
      val td = MDE.decompose(g.n, g.undirectedEdges)
      val tdp = TDPartitioner.partition(td, tau, ke, 0.1, 2.0)
      for ((r, i) <- tdp.roots.zipWithIndex) {
        assert(td.bag(r).length <= tau)
        val size = tdp.partOf.count(_ == i)
        assert(size >= (0.1 * g.n / ke).floor && size <= math.ceil(2.0 * g.n / ke))
      }
      // partitions partition the non-overlay vertices
      val covered = tdp.roots.indices.map(i => tdp.partOf.count(_ == i)).sum
      assert(covered + tdp.overlayCount == g.n)
    }
  }
}
