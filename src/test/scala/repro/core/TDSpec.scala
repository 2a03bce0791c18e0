package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GridGen, RoadGraph}
import repro.core.td.{MDE, TD}
import repro.core.sp.Dijkstra
import scala.util.Random

/** Tree decomposition (MDE) structural invariants — Definition 1 plus the
  * elimination-specific properties the H2H/CH machinery relies on.
  */
class TDSpec extends AnyFunSuite {

  private def graphs: Seq[RoadGraph] = Seq(
    GridGen.grid(6, 9, seed = 1),
    GridGen.grid(5, 20, seed = 2),
    GridGen.randomConnected(70, 50, seed = 3),
    GridGen.randomConnected(30, 5, seed = 4),
  )

  private def checkInvariants(g: RoadGraph, td: TD): Unit = {
    // rank is a permutation
    assert(td.rank.sorted.toSeq == (0 until g.n))
    for (r <- 0 until g.n) assert(td.rank(td.order(r)) == r)
    for (v <- 0 until g.n) {
      val bg = td.bag(v)
      // bag members all ranked above v, sorted by rank descending
      assert(bg.forall(x => td.rank(x) > td.rank(v)))
      assert(bg.map(td.rank).sameElements(bg.map(td.rank).sortBy(-(_: Int))))
      // parent is the lowest-rank bag member
      if (bg.nonEmpty) assert(td.parent(v) == bg.last) else assert(td.parent(v) == -1)
      // bag members are ancestors of v (tree-decomposition subtree property)
      bg.foreach(x => assert(td.isAncestorOrSelf(x, v), s"bag member $x not ancestor of $v"))
      // invariant sc = min(base, supporters)
      for (i <- bg.indices) {
        var m = td.base(v)(i)
        for (w <- td.supporters(v)(i)) m = math.min(m, td.scOf(w, v) + td.scOf(w, bg(i)))
        assert(td.sc(v)(i) == m, s"slot ($v,${bg(i)})")
        // supporters eliminated before v and contain both endpoints in their bag
        for (w <- td.supporters(v)(i)) {
          assert(td.rank(w) < td.rank(v))
          assert(td.bag(w).contains(v) && td.bag(w).contains(bg(i)))
        }
      }
    }
    // every input edge covered by some bag (condition 2 of Definition 1)
    for ((u, v, w) <- g.undirectedEdges) {
      val o = td.pairOwner(u, v)
      val x = if (o == u) v else u
      val slot = td.slotOf(o, x)
      assert(slot >= 0, s"edge ($u,$v) uncovered")
      assert(td.base(o)(slot) == w)
      assert(td.sc(o)(slot) <= w)
    }
    // depths consistent with parents
    for (v <- 0 until g.n)
      if (td.parent(v) != -1) assert(td.depth(v) == td.depth(td.parent(v)) + 1)
      else assert(td.depth(v) == 0)
  }

  test("MDE invariants hold on grids and random graphs") {
    for (g <- graphs) checkInvariants(g, MDE.decompose(g.n, g.undirectedEdges))
  }

  test("shortcut weights are exact distances restricted to lower-ranked interiors") {
    // For full MDE contraction, sc(v,x) must be >= d(v,x) and the CH union
    // must preserve exact distances (checked via CHSpec); here check >=.
    for (g <- graphs) {
      val td = MDE.decompose(g.n, g.undirectedEdges)
      val sample = new Random(5).shuffle((0 until g.n).toList).take(10)
      for (v <- sample) {
        val d = Dijkstra.sssp(g, v)
        for (i <- td.bag(v).indices) assert(td.sc(v)(i) >= d(td.bag(v)(i)))
      }
    }
  }

  test("boundary-first ordering puts forced vertices above all others") {
    val g = GridGen.grid(6, 10, seed = 7)
    val forced = new Array[Boolean](g.n)
    val rnd = new Random(8)
    (1 to 12).foreach(_ => forced(rnd.nextInt(g.n)) = true)
    val td = MDE.decompose(g.n, g.undirectedEdges, forcedLast = forced)
    val minForced = (0 until g.n).filter(forced).map(td.rank).min
    val maxFree = (0 until g.n).filterNot(forced).map(td.rank).max
    assert(maxFree < minForced)
    checkInvariants(g, td)
  }

  test("forcedRank fixes the relative order of forced vertices") {
    val g = GridGen.grid(5, 8, seed = 9)
    val forced = new Array[Boolean](g.n)
    val fr = new Array[Int](g.n)
    val picks = new Random(10).shuffle((0 until g.n).toList).take(8)
    picks.zipWithIndex.foreach { case (v, i) => forced(v) = true; fr(v) = i }
    val td = MDE.decompose(g.n, g.undirectedEdges, forcedLast = forced, forcedRank = fr)
    val ranks = picks.map(td.rank)
    assert(ranks == ranks.sorted, "forced vertices not in fixed order")
    checkInvariants(g, td)
  }

  test("LCA agrees with naive ancestor-walk LCA") {
    val g = GridGen.randomConnected(90, 70, seed = 11)
    val td = MDE.decompose(g.n, g.undirectedEdges)
    def naiveLca(s: Int, t: Int): Int = {
      var a = s; var b = t
      while (td.depth(a) > td.depth(b)) a = td.parent(a)
      while (td.depth(b) > td.depth(a)) b = td.parent(b)
      while (a != b) { a = td.parent(a); b = td.parent(b) }
      a
    }
    val rnd = new Random(12)
    for (_ <- 1 to 300) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      assert(td.lca(s, t) == naiveLca(s, t), s"($s,$t)")
    }
  }

  test("LCA across disconnected components returns -1") {
    val edges = Seq((0, 1, 1), (1, 2, 2), (3, 4, 1))
    val td = MDE.decompose(5, edges)
    assert(td.lca(0, 3) == -1)
    assert(td.lca(0, 2) != -1)
  }

  test("phase1 remaining graph preserves distances among kept vertices (Theorem 2)") {
    for (g <- Seq(GridGen.grid(6, 8, seed = 13), GridGen.randomConnected(50, 30, seed = 14))) {
      val contract = new Array[Boolean](g.n)
      val rnd = new Random(15)
      (0 until g.n).foreach(v => contract(v) = rnd.nextBoolean())
      val kept = (0 until g.n).filterNot(contract)
      if (kept.size >= 2) {
        val rem = MDE.phase1(g.n, g.undirectedEdges, contract)
        // Build reduced graph over kept vertices only and compare distances
        // to the full graph for kept pairs (only where full path could be
        // re-routed through kept vertices? No — phase-1 preserves ALL
        // distances between kept vertices exactly).
        val idx = kept.zipWithIndex.toMap
        val rg = RoadGraph.fromEdges(kept.size, rem.map { case (u, v, w) => (idx(u), idx(v), w) })
        for (s <- kept.take(6)) {
          val dFull = Dijkstra.sssp(g, s)
          val dRed = Dijkstra.sssp(rg, idx(s))
          for (t <- kept)
            assert(dRed(idx(t)) == dFull(t) ||
                   (dRed(idx(t)) >= Dijkstra.Inf && dFull(t) >= Dijkstra.Inf),
                   s"s=$s t=$t red=${dRed(idx(t))} full=${dFull(t)}")
        }
      }
    }
  }

  test("subtreeTops keeps exactly the affected vertices with no affected proper ancestor") {
    for (g <- graphs) {
      val td = MDE.decompose(g.n, g.undirectedEdges)
      val rnd = new Random(16)
      def brute(affected: Array[Int]): Seq[Int] = affected.toSeq.filter { v =>
        !affected.exists(a => a != v && td.isAncestorOrSelf(a, v))
      }
      val sets = Seq(Array.emptyIntArray, Array(rnd.nextInt(g.n)), (0 until g.n).toArray,
        td.roots.clone()) ++
        Seq(0.02, 0.1, 0.3).map(f => (0 until g.n).filter(_ => rnd.nextDouble() < f).toArray)
      for (affected <- sets ++ sets.map(a => rnd.shuffle(a.toSeq).toArray))
        assert(td.subtreeTops(affected).toSeq == brute(affected), s"affected ${affected.toSeq}")
    }
  }

  test("subtreeSize counts each vertex's descendants, itself included") {
    for (g <- graphs) {
      val td = MDE.decompose(g.n, g.undirectedEdges)
      for (v <- 0 until g.n)
        assert(td.subtreeSize(v) == (0 until g.n).count(td.isAncestorOrSelf(v, _)), s"vertex $v")
    }
  }
}
