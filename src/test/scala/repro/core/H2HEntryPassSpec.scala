package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, RoadGraph}
import repro.core.h2h.H2HIndex
import repro.core.sp.Dijkstra
import repro.core.td.{MDE, ShortcutUpdater}
import repro.partition.TDPartitioner
import scala.util.Random

/** `H2HIndex.updateSubtrees`' two passes: the entry pass, which recomputes
  * only the label entries an update can reach, and the subtree pass, which
  * recomputes every row under the subtree tops. After every batch both must
  * leave bit-identical labels and report the same vertices, exactly those
  * whose row changed, and neither may write into a row array that was
  * published before the call.
  */
class H2HEntryPassSpec extends AnyFunSuite {

  private val Batches = 30

  /** Runs `Batches` batches of `size` random reweights on `g`, each through
    * a shortcut sweep and then `updateSubtrees` on one index per pass in
    * `passes`. Then `check(b, results)` gets, per pass, the index, what the
    * call returned, and the row arrays and their contents before the call.
    * Batch 2 (and every seventh after it) repeats two edges inside the
    * batch, one of them back to its old weight; every sixth batch reverts
    * the batch before it.
    */
  private def traffic(g: RoadGraph, size: Int, seed: Long, passes: Seq[H2HIndex.Pass])
                     (check: (Int, Seq[(H2HIndex, Array[Int], Array[Array[Int]], Array[Array[Int]])]) => Unit)
      : Unit = {
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val upd = new ShortcutUpdater(td)
    val idx = passes.map { _ => val h = new H2HIndex(td); h.build(); h }
    var undo: Seq[(Int, Int, Int)] = Nil
    for (b <- 1 to Batches) {
      val batch =
        if (b % 6 == 0) undo
        else {
          val fresh = Datasets.updateBatch(g, size, seed + b)
          if (b % 7 != 2) fresh
          else {
            val (u0, v0, _) = fresh(0); val (u1, v1, w1) = fresh(1)
            fresh ++ Seq((u0, v0, g.weight(u0, v0)), (u1, v1, math.max(1, w1 / 3)))
          }
        }
      undo = batch.map { case (u, v, _) => (u, v) }.distinct.map { case (u, v) => (u, v, g.weight(u, v)) }
      Datasets.applyBatch(g, batch)
      val affected = upd.applyInputChanges(batch).affected
      val results = passes.zip(idx).map { case (pass, h) =>
        val refs = h.dis.clone()
        val snap = refs.map(_.clone())
        (h, h.updateSubtrees(affected, pass), refs, snap)
      }
      check(b, results)
    }
    val rnd = new Random(seed)
    for (_ <- 1 to 40; h <- idx) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      assert(h.query(s, t) == Dijkstra.query(g, s, t), s"($s,$t) after $Batches batches")
    }
  }

  private def sameLabels(a: H2HIndex, b: H2HIndex): Boolean =
    a.dis.indices.forall(v => java.util.Arrays.equals(a.dis(v), b.dis(v)))

  private def equivalence(name: String, g: RoadGraph, size: Int, seed: Long): Unit = {
    var moved = 0L
    traffic(g, size, seed, Seq(H2HIndex.Subtree, H2HIndex.Entry)) { (b, res) =>
      val Seq((hs, cs, _, snap), (he, ce, _, _)) = res
      assert(sameLabels(hs, he), s"$name batch $b: labels differ")
      val rowsChanged = hs.dis.indices.filter(v => !java.util.Arrays.equals(snap(v), hs.dis(v)))
      assert(cs.sorted.toSeq == rowsChanged, s"$name batch $b: subtree pass result")
      assert(ce.sorted.toSeq == rowsChanged, s"$name batch $b: entry pass result")
      moved += rowsChanged.length
    }
    assert(moved > 0, s"$name: no label moved")
  }

  test("entry pass == subtree pass on FLA-lite at |V|/500") {
    val g = Datasets.FLA.build()
    equivalence("FLA-lite", g, g.n / 500, 1100)
  }

  test("entry pass == subtree pass on NY-lite at |V|/50") {
    val g = Datasets.NY.build()
    equivalence("NY-lite", g, g.n / 50, 1200)
  }

  test("entry pass == subtree pass on two disconnected grids") {
    val g = DisconnectedSpec.twoGrids()
    // Each component is its own tree, so the labels hold no `Inf`; the
    // passes must still start a walk in whichever tree a batch touches.
    assert(MDE.decompose(g.n, g.undirectedEdges).roots.length >= 2, "want a forest")
    equivalence("two grids", g, 20, 1300)
  }

  test("no pass writes into a row array published before the call") {
    val g = Datasets.NY.build()
    traffic(g, g.n / 50, 1400, Seq(H2HIndex.Auto, H2HIndex.Subtree, H2HIndex.Entry)) { (b, res) =>
      for ((_, _, refs, snap) <- res; v <- refs.indices)
        assert(java.util.Arrays.equals(refs(v), snap(v)), s"batch $b: row $v written in place")
    }
  }

  test("with a descend filter that leaves out partition subtrees, entry pass == subtree pass") {
    // PostMHL's U3: the overlay's affected vertices, a walk that stops at
    // the TD-partition roots, and partition rows left to later stages.
    val g = Datasets.FLA.build()
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val tdp = TDPartitioner.partition(td, Datasets.FLA.tau, Datasets.FLA.ke)
    assert(tdp.k >= 2, s"want partitions, got k = ${tdp.k}")
    val overlay: Int => Boolean = tdp.partOf(_) == -1
    val upd = new ShortcutUpdater(td)
    val passes = Seq(H2HIndex.Subtree, H2HIndex.Entry, H2HIndex.Auto)
    val idx = passes.map { _ => val h = new H2HIndex(td); h.build(); h }
    var moved = 0L
    for (b <- 1 to Batches) {
      val batch = Datasets.updateBatch(g, g.n / 500, 1500 + b)
      Datasets.applyBatch(g, batch)
      val affected = upd.applyInputChanges(batch).affected.filter(overlay)
      val res = passes.zip(idx).map { case (pass, h) =>
        val refs = h.dis.clone()
        (pass, h, h.updateSubtrees(affected, overlay, pass), refs)
      }
      val (_, hs, cs, refsS) = res.head
      val rowsChanged = hs.dis.indices.filter(v => !java.util.Arrays.equals(refsS(v), hs.dis(v)))
      assert(cs.sorted.toSeq == rowsChanged, s"batch $b: subtree pass result")
      for ((pass, h, c, refs) <- res) {
        assert(sameLabels(hs, h), s"batch $b: $pass labels differ from the subtree pass")
        assert(c.sorted.toSeq == rowsChanged, s"batch $b: $pass result")
        for (v <- refs.indices if !overlay(v))
          assert(h.dis(v) eq refs(v), s"batch $b: $pass replaced partition row $v")
      }
      // The overlay rows read only overlay ancestors, so they are the
      // labels a full build gives.
      val full = new H2HIndex(td); full.build()
      for (v <- 0 until g.n if overlay(v))
        assert(java.util.Arrays.equals(full.dis(v), hs.dis(v)), s"batch $b: overlay row $v")
      moved += rowsChanged.length
    }
    assert(moved > 0, "no overlay label moved")
  }
}

