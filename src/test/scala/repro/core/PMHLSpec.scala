package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, GridGen, RoadGraph}
import repro.core.pmhl.PMHL
import repro.core.sp.Dijkstra
import repro.core.td.TD
import scala.util.Random

/** PMHL: every query stage must be exact (vs Dijkstra) after construction
  * and after each maintenance batch, for same- and cross-partition pairs.
  */
class PMHLSpec extends AnyFunSuite {

  private def checkAllStages(p: PMHL, g: RoadGraph, rnd: Random, pairs: Int,
                             ctx: String): Unit = {
    var samePart = 0; var crossPart = 0
    for (_ <- 1 to pairs) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      if (p.part(s) == p.part(t)) samePart += 1 else crossPart += 1
      val truth = Dijkstra.query(g, s, t)
      assert(p.queryBiDijkstra(s, t) == truth, s"$ctx BiDij ($s,$t)")
      assert(p.queryPCH(s, t) == truth, s"$ctx PCH ($s,$t)")
      assert(p.queryNoBoundary(s, t) == truth, s"$ctx NoB ($s,$t)")
      assert(p.queryPostBoundary(s, t) == truth, s"$ctx PostB ($s,$t)")
      assert(p.queryCrossBoundary(s, t) == truth, s"$ctx CrossB ($s,$t)")
    }
    // the sample must actually exercise both query types
    assert(samePart > 0 && crossPart > 0, s"$ctx unbalanced sample")
  }

  private def scenario(g: RoadGraph, k: Int, seed: Long, rounds: Int = 3,
                       pairs: Int = 120): Unit = {
    val p = new PMHL(g, k, threads = 4)
    p.build()
    val rnd = new Random(seed)
    checkAllStages(p, g, rnd, pairs, s"k=$k initial")
    for (r <- 1 to rounds) {
      val batch = Datasets.updateBatch(g, math.max(8, g.m / 50), seed * 31 + r)
      val times = p.applyUpdateBatch(batch)
      assert(times.t.forall(_ >= 0) && times.t.sameElements(times.t.sorted),
        "stage times must be cumulative")
      checkAllStages(p, g, rnd, pairs, s"k=$k round $r")
    }
  }

  test("PMHL exact on a grid with k=4") {
    scenario(GridGen.grid(8, 12, seed = 61), k = 4, seed = 500)
  }

  test("PMHL exact on a corridor grid with k=8") {
    scenario(GridGen.grid(6, 40, seed = 62), k = 8, seed = 600)
  }

  test("PMHL exact on a random planar-ish graph with k=5 (odd k)") {
    scenario(GridGen.grid(7, 23, seed = 63), k = 5, seed = 700)
  }

  test("PMHL exact with k=2 and heavy batches") {
    scenario(GridGen.grid(5, 16, seed = 64), k = 2, seed = 800, rounds = 4)
  }

  test("PMHL degenerates gracefully with k=1 (all same-partition)") {
    val g = GridGen.grid(5, 10, seed = 65)
    val p = new PMHL(g, 1, threads = 2)
    p.build()
    val rnd = new Random(66)
    for (_ <- 1 to 80) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      val truth = Dijkstra.query(g, s, t)
      assert(p.queryPCH(s, t) == truth)
      assert(p.queryNoBoundary(s, t) == truth)
      assert(p.queryPostBoundary(s, t) == truth)
      assert(p.queryCrossBoundary(s, t) == truth)
    }
    val batch = Datasets.updateBatch(g, 12, seed = 67)
    p.applyUpdateBatch(batch)
    for (_ <- 1 to 80) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      assert(p.queryCrossBoundary(s, t) == Dijkstra.query(g, s, t))
    }
  }

  test("boundary-first property: boundary vertices outrank non-boundary in partition TDs") {
    val g = GridGen.grid(6, 18, seed = 68)
    val p = new PMHL(g, 4, threads = 2)
    p.build()
    for (i <- 0 until 4) {
      val vs = p.members(i)
      val (bs, ins) = vs.partition(p.boundary)
      if (bs.nonEmpty && ins.nonEmpty) {
        val minB = bs.map(v => p.tdPart(i).rank(p.localId(v))).min
        val maxI = ins.map(v => p.tdPart(i).rank(p.localId(v))).max
        assert(maxI < minB, s"partition $i violates boundary-first")
      }
      // relative boundary order consistent with overlay order (Fig 5 cond 2)
      val sortedByPart = bs.sortBy(v => p.tdPart(i).rank(p.localId(v))).toSeq
      val sortedByOv = bs.sortBy(p.tdOv.rank).toSeq
      assert(sortedByPart == sortedByOv)
    }
  }

  test("overlay graph preserves global boundary distances (Theorem 2)") {
    val g = GridGen.grid(6, 14, seed = 69)
    val p = new PMHL(g, 4, threads = 2)
    p.build()
    val allB = (0 until g.n).filter(p.boundary)
    val rnd = new Random(70)
    for (_ <- 1 to 100) {
      val b1 = allB(rnd.nextInt(allB.size)); val b2 = allB(rnd.nextInt(allB.size))
      assert(p.labOv.query(b1, b2) == Dijkstra.query(g, b1, b2), s"($b1,$b2)")
    }
    // and the post-boundary chain rows store exact global distances (D),
    // one slot for each higher-ranked member of B_i
    for (i <- 0 until 4; b <- p.partBoundary(i)) {
      val bag = p.post.bag(b)
      for ((x, j) <- bag.zipWithIndex) assert(p.post.sc(b)(j) == Dijkstra.query(g, b, x), s"D($b,$x)")
      assert(bag.toSet == p.partBoundary(i).filter(p.tdOv.rank(_) > p.tdOv.rank(b)).toSet, s"chain row of $b")
    }
  }

  test("stage times are monotone and update keeps index consistent over many rounds") {
    val g = GridGen.grid(5, 24, seed = 71)
    val p = new PMHL(g, 4, threads = 4)
    p.build()
    val rnd = new Random(72)
    for (r <- 1 to 6) {
      val batch = Datasets.updateBatch(g, 20, seed = 900 + r)
      p.applyUpdateBatch(batch)
    }
    // after 6 rounds, everything still exact
    for (_ <- 1 to 150) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      val truth = Dijkstra.query(g, s, t)
      assert(p.queryPCH(s, t) == truth)
      assert(p.queryNoBoundary(s, t) == truth)
      assert(p.queryCrossBoundary(s, t) == truth)
    }
  }

  test("the parallel build is deterministic: 1 and 4 threads give identical TDs (NY-lite)") {
    val g = Datasets.NY.build()
    val ps = Seq(1, 4).map { t => val p = new PMHL(g, Datasets.NY.k, threads = t); p.build(); p }
    def fields(td: TD): Seq[Any] =
      Seq(td.rank.toSeq, td.bag.map(_.toSeq).toSeq, td.sc.map(_.toSeq).toSeq, td.base.map(_.toSeq).toSeq)
    assert(fields(ps(0).tdOv) == fields(ps(1).tdOv), "tdOv differs")
    for (i <- 0 until Datasets.NY.k)
      assert(fields(ps(0).tdPart(i)) == fields(ps(1).tdPart(i)), s"tdPart($i) differs")
    assert(ps(0).indexEntries == ps(1).indexEntries)
  }

  test("indexEntries is positive and grows with graph size") {
    val small = new PMHL(GridGen.grid(4, 8, seed = 73), 2, 2)
    small.build()
    val large = new PMHL(GridGen.grid(6, 20, seed = 73), 2, 2)
    large.build()
    assert(small.indexEntries > 0)
    assert(large.indexEntries > small.indexEntries)
  }

  test("stages = 2 builds only shortcut arrays and maintains them through U-Stage 2") {
    val g = GridGen.grid(6, 16, seed = 74)
    val p = new PMHL(g, 4, threads = 2, stages = 2)
    assert(p.build().length == 5, "build still reports its five steps")
    assert(p.labOv == null && p.labPart == null && p.labPost == null && p.cross == null)
    assert(p.indexEntries == p.tdOv.slotCount + p.tdPart.map(_.slotCount).sum)
    val rnd = new Random(75)
    for (r <- 1 to 3) {
      val times = p.applyUpdateBatch(Datasets.updateBatch(g, 20, seed = 950 + r))
      assert(times.t.length == 2)
      for (_ <- 1 to 80) {
        val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
        assert(p.queryPCH(s, t) == Dijkstra.query(g, s, t), s"round $r PCH ($s,$t)")
      }
    }
    assert(p.labOv == null && p.labPart == null && p.labPost == null && p.cross == null)
  }

  test("stages must be 2, 4 or 5") {
    val g = GridGen.grid(4, 8, seed = 76)
    intercept[IllegalArgumentException](new PMHL(g, 2, threads = 1, stages = 3))
  }
}
