package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, GridGen, RoadGraph}
import repro.core.h2h.H2HIndex
import repro.core.pmhl.PMHL
import repro.core.sp.Dijkstra
import repro.core.td.{MDE, TD}
import repro.partition.SpatialPartitioner

/** PMHL's post-boundary forest and local-id partition TDs against the
  * global-id construction they replace, kept here as the oracle. For each
  * partition i, with B_i forced last in overlay rank order:
  *  - an MDE over all n vertices of i's intra edges plus the clique of
  *    finite global distances D over B_i, and its H2H labels: the forest's
  *    parent, depth, bag and sc and every `labPost` row of i's vertices
  *    must equal them bit for bit;
  *  - an MDE over all n vertices of i's intra edges alone: `tdPart(i)`,
  *    translated to global ids, must have its rank order, bags, shortcuts
  *    and parents.
  * Both are checked after build and after each of 3 update batches.
  */
class PMHLPostForestSpec extends AnyFunSuite {

  /** Checks every partition; returns the number of D = `Inf` pairs seen. */
  private def check(p: PMHL, g: RoadGraph, ctx: String): Int = {
    val intra = SpatialPartitioner.splitEdges(g, p.pr).intra.zip(p.members).map { case (es, ms) =>
      es.map { case (u, v, w) => (ms(u), ms(v), w) }
    }
    var infPairs = 0
    for (i <- 0 until p.k) {
      val bs = p.partBoundary(i); val ms = p.members(i)
      val forced = Array.tabulate(g.n)(v => p.part(v) == i && p.boundary(v))
      val clique = for {
        a <- bs.indices; dist = Dijkstra.sssp(g, bs(a)); b <- (a + 1) until bs.length
      } yield (bs(a), bs(b), dist(bs(b)))
      infPairs += clique.count(_._3 == TD.Inf)

      val ext = MDE.decompose(g.n, intra(i) ++ clique.filter(_._3 < TD.Inf), forced, p.tdOv.rank)
      val extLab = new H2HIndex(ext); extLab.build()
      for (v <- ms) {
        val at = s"$ctx: partition $i vertex $v"
        assert(p.post.parent(v) == ext.parent(v), s"$at post parent")
        assert(p.post.depth(v) == ext.depth(v), s"$at post depth")
        assert(p.post.bag(v).sameElements(ext.bag(v)), s"$at post bag")
        assert(p.post.sc(v).sameElements(ext.sc(v)), s"$at post sc")
        assert(p.labPost.dis(v).sameElements(extLab.dis(v)), s"$at labPost row")
      }

      val td = MDE.decompose(g.n, intra(i), forced, p.tdOv.rank)
      val local = p.tdPart(i)
      assert(local.n == ms.length, s"$ctx: partition $i TD has ${local.n} vertices, not ${ms.length}")
      assert(local.order.map(ms).sameElements(td.order.filter(p.part(_) == i)), s"$ctx: partition $i rank order")
      for (l <- ms.indices) {
        val v = ms(l); val at = s"$ctx: partition $i vertex $v"
        assert(local.bag(l).map(ms).sameElements(td.bag(v)), s"$at partition bag")
        assert(local.sc(l).sameElements(td.sc(v)), s"$at partition sc")
        val pl = local.parent(l)
        assert((if (pl == -1) -1 else ms(pl)) == td.parent(v), s"$at partition parent")
      }
    }
    infPairs
  }

  /** Build, then 3 batches; returns the D = `Inf` pairs seen at build. */
  private def scenario(g: RoadGraph, k: Int, stages: Int, batch: Int, seed: Long): Int = {
    val p = new PMHL(g, k, threads = 2, stages = stages)
    p.build()
    val inf = check(p, g, "build")
    for (r <- 1 to 3) {
      p.applyUpdateBatch(Datasets.updateBatch(g, batch, seed + r))
      check(p, g, s"batch $r")
    }
    inf
  }

  test("post-boundary forest and local partition TDs equal the global-id MDEs on a grid") {
    scenario(GridGen.grid(8, 20, seed = 1301), k = 4, stages = 5, batch = 20, seed = 1310)
  }

  test("post-boundary forest and local partition TDs equal the global-id MDEs on NY-lite (stages = 4)") {
    val g = Datasets.NY.build()
    scenario(g, Datasets.NY.k, stages = 4, batch = Datasets.defaultUpdateVolume(Datasets.NY), seed = 1320)
  }

  test("post-boundary forest splits B_i at D = Inf pairs on two disconnected grids") {
    val inf = scenario(DisconnectedSpec.twoGrids(), k = 4, stages = 5, batch = 20, seed = 1330)
    assert(inf > 0, "no partition's boundary spans both components")
  }
}
