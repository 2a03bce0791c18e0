package repro.core.td

import java.util.BitSet
import scala.collection.mutable

/** Result of one shortcut-maintenance pass.
  *
  * @param affected       owners whose shortcut array changed, in ascending
  *                       rank (input to the top-down label update)
  * @param overlayChanges boundary-boundary pairs whose *phase-1* value
  *                       (contraction of non-boundary vertices only,
  *                       Theorem 2) changed — these are input-edge changes
  *                       for the overlay index
  */
final case class ShortcutUpdateResult(
    affected: Array[Int],
    overlayChanges: IndexedSeq[(Int, Int, Int)],
)

/** Bottom-up shortcut maintenance over a [[TD]] by mark and sweep: the
  * partial customization of Customizable Contraction Hierarchies (Dibbelt,
  * Strasser, Wagner, ACM JEA 2016), restricted to the owners a change can
  * reach.
  *
  * Each slot (v, bag(v)(i)) obeys
  * `sc = min(base, min_w∈supporters sc(w,v)+sc(w,bag(v)(i)))`. [[seed]]
  * writes new input-edge weights into `base` and marks each owner whose
  * base changed, as a bit at its rank. [[sweep]] visits the marked owners in
  * ascending rank and recomputes every slot of each; a supporter term is two
  * reads at `td.supSlots`. An owner whose `sc` changed marks every member of
  * its bag: those members own every pair it supports, and they rank above it.
  *
  * This is exact: a slot can change only if its base changed or a supporter
  * `w` changed, and such a `w` holds the slot's owner in its bag. Supporters
  * rank below the owners they support, so their values are final when the
  * owner is visited.
  *
  * With `boundaryFlag` set (PMHL partition indexes), each visit of a
  * boundary owner also recomputes the phase-1 value of its boundary-boundary
  * slots — min over *non-boundary* supporters only — and reports its changes
  * as `overlayChanges` (they are the overlay graph's input-edge updates).
  *
  * A sweep keeps per-call state only, so sweeps over disjoint owner sets
  * (PostMHL's partitions) may run concurrently.
  */
final class ShortcutUpdater(val td: TD, boundaryFlag: Array[Boolean] = null) {
  import TD.Inf

  private val trackOverlay = boundaryFlag != null

  /** `min(base, supporter terms)` of slot (o, slot); with `phase1`, over the
    * non-boundary supporters only.
    */
  private def recompute(o: Int, slot: Int, phase1: Boolean): Int = {
    val sups = td.supporters(o)(slot); val at = td.supSlots(o)(slot)
    var m = td.base(o)(slot)
    var j = 0
    while (j < sups.length) {
      if (!phase1 || !boundaryFlag(sups(j))) {
        val sw = td.sc(sups(j))
        val c = sw(at(j) >>> 16) + sw(at(j) & 0xffff)
        if (c < m) m = c
      }
      j += 1
    }
    m
  }

  for (v <- 0 until td.n; i <- td.bag(v).indices)
    require(recompute(v, i, phase1 = false) == td.sc(v)(i), s"sc invariant broken at ($v,${td.bag(v)(i)})")

  /** Phase-1 values for boundary-boundary slots, aligned with td.bag. */
  private val ovVal: Array[Array[Int]] =
    if (!trackOverlay) null
    else Array.tabulate(td.n) { v =>
      if (!boundaryFlag(v)) Array.emptyIntArray
      else td.bag(v).indices.map { i =>
        if (boundaryFlag(td.bag(v)(i))) recompute(v, i, phase1 = true) else Inf
      }.toArray
    }

  /** Current phase-1 boundary graph (overlay input edges) of this index. */
  def overlayInputEdges(): IndexedSeq[(Int, Int, Int)] = {
    require(trackOverlay, "no boundary flags")
    val out = new mutable.ArrayBuffer[(Int, Int, Int)]()
    var v = 0
    while (v < td.n) {
      if (boundaryFlag(v)) {
        var i = 0
        while (i < td.bag(v).length) {
          if (boundaryFlag(td.bag(v)(i))) out += ((v, td.bag(v)(i), ovVal(v)(i)))
          i += 1
        }
      }
      v += 1
    }
    out.toIndexedSeq
  }

  /** Write new input-edge weights into `base`; returns the marks for
    * [[sweep]]: the rank of each owner whose base changed.
    */
  def seed(changes: Iterable[(Int, Int, Int)]): BitSet = {
    val marks = new BitSet(td.n)
    changes.foreach { case (u, v, w) =>
      require(w > 0, s"non-positive weight $w on edge ($u,$v)")
      val o = td.pairOwner(u, v)
      val slot = td.slotOf(o, if (o == u) v else u)
      require(slot >= 0, s"input edge ($u,$v) has no slot")
      if (td.base(o)(slot) != w) {
        td.base(o)(slot) = w
        marks.set(td.rank(o))
      }
    }
    marks
  }

  /** Recompute the marked owners that `own` admits, in ascending rank,
    * clearing each bit as it is visited and marking the bag of each owner
    * whose `sc` changed. Bits of other owners are left set for a later sweep.
    */
  def sweep(marks: BitSet, own: Int => Boolean = _ => true): ShortcutUpdateResult = {
    val affected = new mutable.ArrayBuilder.ofInt
    val overlayChanges = new mutable.ArrayBuffer[(Int, Int, Int)]()
    var r = marks.nextSetBit(0)
    while (r >= 0) {
      val o = td.order(r)
      if (own(o)) {
        marks.clear(r)
        val bg = td.bag(o); val sc = td.sc(o)
        val bnd = trackOverlay && boundaryFlag(o)
        var changed = false
        var i = 0
        while (i < bg.length) {
          val m = recompute(o, i, phase1 = false)
          if (m != sc(i)) { sc(i) = m; changed = true }
          if (bnd && boundaryFlag(bg(i))) {
            val p = recompute(o, i, phase1 = true)
            if (p != ovVal(o)(i)) { ovVal(o)(i) = p; overlayChanges += ((o, bg(i), p)) }
          }
          i += 1
        }
        if (changed) {
          affected += o
          bg.foreach(x => marks.set(td.rank(x)))
        }
      }
      r = marks.nextSetBit(r + 1)
    }
    ShortcutUpdateResult(affected.result(), overlayChanges.toIndexedSeq)
  }

  /** Convenience: seed + one sweep over every owner. */
  def applyInputChanges(changes: Iterable[(Int, Int, Int)]): ShortcutUpdateResult =
    sweep(seed(changes))
}
