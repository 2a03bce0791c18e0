package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.graph.{Datasets, GridGen}
import repro.core.td.{MDE, ShortcutUpdater}
import repro.core.h2h.{CHQuery, H2HIndex, UpwardGraph}
import repro.core.postmhl.PostMHL
import repro.core.sp.{BiDijkstra, Dijkstra}
import scala.util.Random

/** ScalaCheck properties over randomly generated graphs, orders, and
  * update batches — the adversarial sweep behind the targeted suites.
  */
object GraphProperties extends Properties("repro.core") {

  private val genGraph = for {
    n <- Gen.choose(8, 60)
    extra <- Gen.choose(0, 40)
    seed <- Gen.choose(0L, 100000L)
  } yield GridGen.randomConnected(n, extra, seed)

  private val genGrid = for {
    w <- Gen.choose(2, 7)
    l <- Gen.choose(2, 15)
    seed <- Gen.choose(0L, 100000L)
  } yield GridGen.grid(w, l, seed)

  private def sampleExact(g: repro.graph.RoadGraph, q: (Int, Int) => Int, seed: Long): Prop = {
    val rnd = new Random(seed)
    Prop.all((1 to 12).map { _ =>
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      Prop(q(s, t) == Dijkstra.query(g, s, t)) :| s"pair ($s,$t)"
    }: _*)
  }

  property("BiDijkstra == Dijkstra on random graphs") = forAll(genGraph) { g =>
    sampleExact(g, BiDijkstra.query(g, _, _), 1)
  }

  property("CH == Dijkstra on random graphs") = forAll(genGraph) { g =>
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val ch = new CHQuery(UpwardGraph.fromTD(td))
    sampleExact(g, ch.query, 2)
  }

  property("H2H == Dijkstra on random grids") = forAll(genGrid) { g =>
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val h = new H2HIndex(td); h.build()
    sampleExact(g, h.query, 3)
  }

  property("H2H == Dijkstra under random boundary-first orders") =
    forAll(genGraph, Gen.choose(0, 10)) { (g, nForced) =>
      val rnd = new Random(nForced)
      val forced = new Array[Boolean](g.n)
      (0 until math.min(nForced, g.n)).foreach(_ => forced(rnd.nextInt(g.n)) = true)
      val td = MDE.decompose(g.n, g.undirectedEdges, forcedLast = forced)
      val h = new H2HIndex(td); h.build()
      sampleExact(g, h.query, 4)
    }

  property("maintenance == rebuild after random batches") =
    forAll(genGraph, Gen.choose(1L, 9999L)) { (g, seed) =>
      val td = MDE.decompose(g.n, g.undirectedEdges)
      val upd = new ShortcutUpdater(td)
      val passes = Seq(H2HIndex.Auto, H2HIndex.Entry, H2HIndex.Subtree)
      val hs = passes.map { _ => val h = new H2HIndex(td); h.build(); h }
      val batch = Datasets.updateBatch(g, math.max(2, g.m / 6), seed)
      Datasets.applyBatch(g, batch)
      val affected = upd.applyInputChanges(batch).affected
      passes.zip(hs).foreach { case (p, h) => h.updateSubtrees(affected, p) }
      val rebuilt = new H2HIndex(td); rebuilt.build()
      Prop.all(passes.zip(hs).map { case (p, h) =>
        Prop(h.dis.indices.forall(v => java.util.Arrays.equals(h.dis(v), rebuilt.dis(v)))) :| s"$p pass"
      }: _*) && sampleExact(g, hs.head.query, seed)
    }

  property("PostMHL labels == rebuild after a random batch") =
    forAll(genGraph, Gen.choose(0, 8), Gen.choose(2, 6), Gen.choose(1L, 9999L)) { (g, tau, ke, seed) =>
      val p = new PostMHL(g, tau, ke, betaL = 0.1, betaU = 2.0, threads = 2)
      p.applyUpdateBatch(Datasets.updateBatch(g, math.max(2, g.m / 6), seed))
      val rebuilt = new H2HIndex(p.td); rebuilt.build()
      Prop.collect(if (p.k == 0) "k = 0" else "k > 0") {
        Prop(p.dis.indices.forall(v => java.util.Arrays.equals(p.dis(v), rebuilt.dis(v)))) &&
          sampleExact(g, p.queryPost, seed)
      }
    }

  property("tree decomposition bags are cliques of ancestors") = forAll(genGraph) { g =>
    val td = MDE.decompose(g.n, g.undirectedEdges)
    Prop.all((0 until g.n).map { v =>
      Prop(td.bag(v).forall(x => td.isAncestorOrSelf(x, v))) :| s"bag of $v"
    }: _*)
  }

  property("phase1 preserves distances among kept vertices") = forAll(genGraph) { g =>
    val rnd = new Random(g.n)
    val contract = Array.fill(g.n)(rnd.nextBoolean())
    val kept = (0 until g.n).filterNot(contract)
    if (kept.size < 2) Prop.passed
    else {
      val idx = kept.zipWithIndex.toMap
      val rem = MDE.phase1(g.n, g.undirectedEdges, contract)
      val rg = repro.graph.RoadGraph.fromEdges(kept.size,
        rem.map { case (u, v, w) => (idx(u), idx(v), w) })
      val s = kept.head
      val dFull = Dijkstra.sssp(g, s)
      val dRed = Dijkstra.sssp(rg, idx(s))
      Prop(kept.forall(t =>
        dRed(idx(t)) == dFull(t) ||
          (dRed(idx(t)) >= Dijkstra.Inf && dFull(t) >= Dijkstra.Inf)))
    }
  }

  property("update batches are involutive on topology") = forAll(genGrid) { g =>
    val orig = g.undirectedEdges
    val batch = Datasets.updateBatch(g, math.max(1, g.m / 4), 77)
    Datasets.applyBatch(g, batch)
    val restore = orig.map { case (u, v, w) => (u, v, w) }
    Datasets.applyBatch(g, restore)
    Prop(g.undirectedEdges == orig)
  }
}
