package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GridGen, RoadGraph}
import repro.partition.SpatialPartitioner
import repro.core.td.{MDE, TD}
import scala.collection.mutable
import scala.util.Random

/** Differential test of `MDE` against a naive minimum-degree elimination:
  * hash-map adjacency, and at each step a full scan for the smallest
  * `(priority, id)` among the vertices left, which is the order a lazy
  * min-heap yields. Every field of the resulting TD must be equal, and
  * `phase1` must leave the same edge set.
  */
class MDESpec extends AnyFunSuite {
  import TD.Inf

  /** `MDE`'s offset that puts forced vertices after all others. */
  private val ForcedOffset = 1 << 26

  private final class Ref(val rank: Array[Int], val order: Array[Int], val parent: Array[Int],
                          val children: Array[Array[Int]], val depth: Array[Int], val roots: Array[Int],
                          val bag: Array[Array[Int]], val sc: Array[Array[Int]], val base: Array[Array[Int]],
                          val supporters: Array[Array[Array[Int]]], val supSlots: Array[Array[Array[Int]]])

  private def input(n: Int, edges: Iterable[(Int, Int, Int)]): Array[mutable.HashMap[Int, Int]] = {
    val adj = Array.fill(n)(new mutable.HashMap[Int, Int]())
    for ((u, v, w) <- edges) {
      require(u != v)
      val m = math.min(w, adj(u).getOrElse(v, Int.MaxValue))
      adj(u)(v) = m; adj(v)(u) = m
    }
    adj
  }

  /** Eliminates the `elim` vertices in ascending `(prio(v, degree), v)`,
    * calling `visit` with each one's neighbours and weights; returns the
    * adjacency left.
    */
  private def naiveEliminate(n: Int, adj: Array[mutable.HashMap[Int, Int]], elim: Int => Boolean,
                             prio: (Int, Int) => Int)(visit: (Int, Map[Int, Int]) => Unit)
      : Array[mutable.HashMap[Int, Int]] = {
    val left = mutable.TreeSet((0 until n).filter(elim): _*)
    while (left.nonEmpty) {
      val v = left.minBy(x => (prio(x, adj(x).size), x))
      left -= v
      val nb = adj(v).toMap
      visit(v, nb)
      for ((a, wa) <- nb; (b, wb) <- nb if a != b && wa + wb < adj(a).getOrElse(b, Inf))
        adj(a)(b) = wa + wb
      for (a <- nb.keys) adj(a) -= v
      adj(v).clear()
    }
    adj
  }

  private def naiveDecompose(n: Int, edges: Iterable[(Int, Int, Int)], forcedLast: Array[Boolean],
                             forcedRank: Array[Int]): Ref = {
    val in = input(n, edges)
    val adj = input(n, edges)
    val rank = new Array[Int](n); val order = new Array[Int](n)
    val raw = new Array[Map[Int, Int]](n)
    var r = 0
    naiveEliminate(n, adj, _ => true, (v, deg) =>
      if (forcedLast == null || !forcedLast(v)) deg
      else ForcedOffset + (if (forcedRank != null) forcedRank(v) else deg)) { (v, nb) =>
      rank(v) = r; order(r) = v; raw(v) = nb; r += 1
    }
    val bag = Array.tabulate(n)(v => raw(v).keys.toArray.sortBy(x => -rank(x)))
    val sc = Array.tabulate(n)(v => bag(v).map(raw(v)))
    val base = Array.tabulate(n)(v => bag(v).map(x => in(v).getOrElse(x, Inf)))
    val parent = Array.tabulate(n)(v => if (bag(v).isEmpty) -1 else bag(v).last)
    val children = Array.tabulate(n)(p => (0 until n).filter(parent(_) == p).toArray)
    val roots = (0 until n).filter(parent(_) == -1).toArray
    val depth = new Array[Int](n)
    for (u <- order.reverse) depth(u) = if (parent(u) == -1) 0 else depth(parent(u)) + 1
    // Supporter w of slot (o, x): o and x both in bag(w), o the lower rank.
    val sup = Array.tabulate(n)(o => Array.fill(bag(o).length)(mutable.ArrayBuffer[Int]()))
    val sl = Array.tabulate(n)(o => Array.fill(bag(o).length)(mutable.ArrayBuffer[Int]()))
    for (w <- order; pb <- bag(w).indices; pa <- 0 until pb) {
      val o = bag(w)(pb); val s = bag(o).indexOf(bag(w)(pa))
      sup(o)(s) += w; sl(o)(s) += (pb << 16) | pa
    }
    new Ref(rank, order, parent, children, depth, roots, bag, sc, base,
      sup.map(_.map(_.toArray)), sl.map(_.map(_.toArray)))
  }

  private def naivePhase1(n: Int, edges: Iterable[(Int, Int, Int)],
                          contract: Array[Boolean]): Set[(Int, Int, Int)] = {
    val adj = naiveEliminate(n, input(n, edges), contract(_), (_, deg) => deg)((_, _) => ())
    (for (u <- 0 until n if !contract(u); (x, w) <- adj(u) if u < x && w < Inf) yield (u, x, w)).toSet
  }

  /** Nested arrays as nested `Seq`s, so `==` compares them element-wise. */
  private def deep(a: Any): Any = a match {
    case x: Array[Int] => x.toSeq
    case x: Array[_] => x.toSeq.map(deep)
    case x => x
  }

  private def check(n: Int, edges: Iterable[(Int, Int, Int)], ctx: String,
                    forcedLast: Array[Boolean] = null, forcedRank: Array[Int] = null): TD = {
    val td = MDE.decompose(n, edges, forcedLast, forcedRank)
    assertSame(td, naiveDecompose(n, edges, forcedLast, forcedRank), n, ctx)
    td
  }

  private def assertSame(td: TD, ref: Ref, n: Int, ctx: String): Unit = {
    assert(td.n == n, ctx)
    val fields = Seq[(String, Array[_], Array[_])](
      ("rank", td.rank, ref.rank), ("order", td.order, ref.order),
      ("parent", td.parent, ref.parent), ("children", td.children, ref.children),
      ("depth", td.depth, ref.depth), ("roots", td.roots, ref.roots),
      ("bag", td.bag, ref.bag), ("sc", td.sc, ref.sc), ("base", td.base, ref.base),
      ("supporters", td.supporters, ref.supporters), ("supSlots", td.supSlots, ref.supSlots))
    for ((name, got, want) <- fields)
      assert(deep(got) == deep(want), s"$ctx: $name differs")
  }

  /** `resume(contract(n, edges, !forced), rank)` against the naive
    * elimination with `forced` last in `rank` order; the partial's
    * `remaining` against the naive phase 1.
    */
  private def checkResume(n: Int, edges: Iterable[(Int, Int, Int)], forced: Array[Boolean],
                          rank: Array[Int], ctx: String): Unit = {
    val contract = forced.map(!_)
    val p = MDE.contract(n, edges, contract)
    assert(p.remaining.toSet == naivePhase1(n, edges, contract), s"$ctx: remaining differs")
    assertSame(MDE.resume(p, rank), naiveDecompose(n, edges, forced, rank), n, ctx)
  }

  /** Resume checks with a few forced sets: none, all, every third vertex and
    * a random quarter, each with a random permutation as rank and with a
    * rank full of ties.
    */
  private def checkResumes(n: Int, edges: Iterable[(Int, Int, Int)], seed: Long, ctx: String): Unit = {
    val rnd = new Random(seed)
    val forcedSets = Seq("none" -> Array.fill(n)(false), "all" -> Array.fill(n)(true),
      "thirds" -> Array.tabulate(n)(_ % 3 == 0), "random" -> Array.fill(n)(rnd.nextInt(4) == 0))
    val ranks = Seq("permutation" -> rnd.shuffle((0 until n).toList).toArray,
      "ties" -> Array.fill(n)(rnd.nextInt(3)))
    for ((fName, forced) <- forcedSets; (rName, rank) <- ranks)
      checkResume(n, edges, forced, rank, s"$ctx forced $fName rank $rName")
  }

  private def checkPhase1(n: Int, edges: Iterable[(Int, Int, Int)], contract: Array[Boolean],
                          ctx: String): Unit = {
    val got = MDE.phase1(n, edges, contract)
    assert(got.toSet.size == got.size, s"$ctx: phase1 repeats an edge")
    assert(got.toSet == naivePhase1(n, edges, contract), s"$ctx: phase1 edge sets differ")
  }

  /** The edges of g with each one also given reversed, some twice, with
    * other weights, in a shuffled order.
    */
  private def noisy(g: RoadGraph, seed: Long): Seq[(Int, Int, Int)] = {
    val rnd = new Random(seed)
    val out = mutable.ArrayBuffer[(Int, Int, Int)]()
    for ((u, v, w) <- g.undirectedEdges) {
      out += ((u, v, w))
      if (rnd.nextInt(3) == 0) out += ((v, u, w + rnd.nextInt(5) - 2 max 1))
      if (rnd.nextInt(5) == 0) out += ((u, v, w + rnd.nextInt(9)))
    }
    rnd.shuffle(out.toSeq)
  }

  test("grids and random graphs: every TD field equals the naive elimination's") {
    for (g <- Seq(GridGen.grid(6, 9, seed = 1), GridGen.grid(5, 20, seed = 2),
                  GridGen.grid(3, 40, seed = 3), GridGen.randomConnected(70, 50, seed = 4),
                  GridGen.randomConnected(30, 5, seed = 5), GridGen.randomConnected(60, 600, seed = 6))) {
      check(g.n, g.undirectedEdges, s"n=${g.n} m=${g.m}")
      val contract = Array.tabulate(g.n)(_ % 3 != 0)
      checkPhase1(g.n, g.undirectedEdges, contract, s"phase1 n=${g.n}")
    }
  }

  test("duplicate and reversed edges in shuffled order") {
    for (seed <- 1 to 4) {
      val g = GridGen.randomConnected(50, 40 * seed, seed = seed)
      val edges = noisy(g, seed)
      check(g.n, edges, s"seed $seed")
      checkPhase1(g.n, edges, Array.tabulate(g.n)(v => (v * 7 + seed) % 4 != 0), s"phase1 seed $seed")
    }
  }

  test("two components and isolated vertices") {
    val a = GridGen.grid(4, 7, seed = 11); val b = GridGen.randomConnected(20, 15, seed = 12)
    // vertices [0, a.n) and [a.n + 3, a.n + 3 + b.n); the rest are isolated
    val n = a.n + b.n + 6
    val edges = a.undirectedEdges ++ b.undirectedEdges.map { case (u, v, w) => (u + a.n + 3, v + a.n + 3, w) }
    val td = check(n, edges, "two components")
    assert(td.roots.length == 2 + 6, s"roots ${td.roots.mkString(",")}")
    checkPhase1(n, edges, Array.tabulate(n)(_ % 2 == 0), "phase1 two components")
    check(5, Nil, "no edges")
    checkPhase1(5, Nil, Array.fill(5)(true), "phase1 no edges")
  }

  test("forcedLast and forcedRank orders of PMHL-style partitions on global ids") {
    val g = GridGen.grid(6, 30, seed = 21)
    val pr = SpatialPartitioner.partition(g, 4)
    val edges = SpatialPartitioner.splitEdges(g, pr)
    val intra = edges.intra.zip(pr.members).map { case (es, ms) => es.map { case (u, v, w) => (ms(u), ms(v), w) } }
    // the Theorem-2 overlay input: each partition contracted to its boundary
    val ovEdges = (0 until pr.k).flatMap { i =>
      val contract = Array.tabulate(g.n)(v => pr.part(v) == i && !pr.boundary(v))
      checkPhase1(g.n, intra(i), contract, s"phase1 partition $i")
      MDE.phase1(g.n, intra(i), contract)
    } ++ edges.inter
    val ov = check(g.n, ovEdges, "overlay")
    for (i <- 0 until pr.k) {
      val forced = Array.tabulate(g.n)(v => pr.part(v) == i && pr.boundary(v))
      check(g.n, intra(i), s"partition $i forcedLast", forcedLast = forced)
      check(g.n, intra(i), s"partition $i forcedRank", forcedLast = forced, forcedRank = ov.rank)
    }
    val rnd = new Random(22)
    val forced = Array.fill(g.n)(rnd.nextInt(4) == 0)
    val fr = rnd.shuffle((0 until g.n).toList).toArray
    check(g.n, g.undirectedEdges, "random forcedRank", forcedLast = forced, forcedRank = fr)
  }

  test("a pair given twice keeps its minimum weight in base and sc") {
    // path 0-1-2 given as (0,1,9), (1,0,4), (1,2,6), (2,1,8)
    val td = check(3, Seq((0, 1, 9), (1, 0, 4), (1, 2, 6), (2, 1, 8)), "twice")
    for ((u, v, w) <- Seq((0, 1, 4), (1, 2, 6))) {
      val o = td.pairOwner(u, v); val x = if (o == u) v else u
      assert(td.base(o)(td.slotOf(o, x)) == w && td.scOf(o, x) == w, s"pair ($u,$v)")
    }
    val rem = MDE.phase1(3, Seq((0, 1, 9), (1, 0, 4), (1, 2, 6), (2, 1, 8)), Array(false, true, false))
    assert(rem == Seq((0, 2, 10)))
  }

  test("resume after contract equals the naive elimination with the rest forced last") {
    val graphs = Seq(GridGen.grid(6, 9, seed = 1), GridGen.grid(5, 20, seed = 2),
      GridGen.grid(3, 40, seed = 3), GridGen.randomConnected(70, 50, seed = 4),
      GridGen.randomConnected(30, 5, seed = 5), GridGen.randomConnected(60, 600, seed = 6))
    for ((g, j) <- graphs.zipWithIndex) {
      checkResumes(g.n, g.undirectedEdges, 30 + j, s"n=${g.n} m=${g.m}")
      checkResumes(g.n, noisy(g, 40 + j), 50 + j, s"noisy n=${g.n}")
    }
    val a = GridGen.grid(4, 7, seed = 11); val b = GridGen.randomConnected(20, 15, seed = 12)
    val n = a.n + b.n + 6
    val twoComponents = a.undirectedEdges ++ b.undirectedEdges.map { case (u, v, w) => (u + a.n + 3, v + a.n + 3, w) }
    checkResumes(n, twoComponents, 60, "two components")
    checkResumes(5, Nil, 61, "no edges")
    checkResumes(1, Nil, 62, "one vertex")
  }

  test("resume rejects a rank of the wrong length and a second resume") {
    val g = GridGen.grid(4, 6, seed = 70)
    val forced = Array.tabulate(g.n)(_ % 4 == 0)
    val p = MDE.contract(g.n, g.undirectedEdges, forced.map(!_))
    intercept[IllegalArgumentException](MDE.resume(p, new Array[Int](g.n - 1)))
    intercept[IllegalArgumentException](MDE.resume(p, new Array[Int](g.n + 1)))
    MDE.resume(p, Array.tabulate(g.n)(v => g.n - v))
    intercept[IllegalArgumentException](MDE.resume(p, Array.tabulate(g.n)(v => g.n - v)))
    intercept[IllegalArgumentException](p.remaining)
  }

  test("a self loop is rejected") {
    intercept[IllegalArgumentException](MDE.decompose(3, Seq((0, 1, 2), (2, 2, 1))))
    intercept[IllegalArgumentException](MDE.phase1(3, Seq((1, 1, 2)), Array(true, false, false)))
  }
}
