package repro.core.td

import scala.collection.mutable

/** Result of one shortcut-maintenance pass.
  *
  * @param affected       owners whose shortcut array changed (input to the
  *                       top-down label update, deduplicated)
  * @param deferredSlots  encoded slots whose owner failed the caller's
  *                       filter (e.g. overlay-owned slots during a
  *                       partition-parallel pass); feed to a later pass
  * @param overlayChanges boundary-boundary pairs whose *phase-1* value
  *                       (contraction of non-boundary vertices only,
  *                       Theorem 2) changed — these are input-edge changes
  *                       for the overlay index
  */
final case class ShortcutUpdateResult(
    affected: Array[Int],
    deferredSlots: Array[Long],
    overlayChanges: IndexedSeq[(Int, Int, Int)],
)

/** DCH-style bottom-up shortcut maintenance [32] over a [[TD]].
  *
  * Each slot (v, bag(v)(i)) obeys
  * `sc = min(base, min_w∈supporters sc(w,v)+sc(w,x))`; an input-edge change
  * seeds its slot, and slots are recomputed in ascending owner-rank order,
  * propagating to the (higher-ranked) pairs inside the owner's bag — the
  * shortcut-centric paradigm. Encoded slots are `rank(owner) << 20 | slot`.
  *
  * Like DCH's shortcut supporting graph, each slot remembers which
  * provider (the base edge or one supporter) currently attains the min,
  * so a touched slot is usually an O(1) check: a full supporter rescan is
  * needed only when the attaining provider itself increased. Providers,
  * the `argmin` entries and the causes queued with a slot are supporter
  * indices into `td.supporters(owner)(slot)`, not vertex ids. With the
  * triangle tables of [[TD]] a contribution is two reads at
  * `td.supSlots`, and a changed slot finds each pair it supports, and its
  * own index there, in `td.pairRefs`: no pass scans a bag.
  *
  * With `boundaryFlag` set (PMHL partition indexes), the phase-1 value of
  * boundary-boundary slots — min over *non-boundary* supporters only — is
  * tracked as well, and its changes are reported as `overlayChanges`
  * (they are the overlay graph's input-edge updates).
  */
final class ShortcutUpdater(val td: TD, boundaryFlag: Array[Boolean] = null) {
  import TD.Inf

  private val trackOverlay = boundaryFlag != null
  /** Base-edge provider marker in argmin arrays. */
  private val Base = -1
  /** Cause marker for slots whose changed provider is unknown (deferred
    * re-entries from a partition-parallel pass): forces a full rescan.
    */
  private val Rescan = -2

  /** Contribution of a supporter `w` whose triangle halves are at `at`
    * (a `td.supSlots` entry).
    */
  @inline private def via(w: Int, at: Int): Int = {
    val sw = td.sc(w)
    sw(at >>> 16) + sw(at & 0xffff)
  }

  /** Value of provider `p` (`Base` or a supporter index) for slot (o, slot). */
  private def value(o: Int, slot: Int, p: Int): Int =
    if (p == Base) td.base(o)(slot) else via(td.supporters(o)(slot)(p), td.supSlots(o)(slot)(p))

  /** Provider attaining the minimum of slot (o, slot), by full rescan. */
  private def scan(o: Int, slot: Int): Int = {
    val sups = td.supporters(o)(slot); val at = td.supSlots(o)(slot)
    var m = td.base(o)(slot); var arg = Base
    var j = 0
    while (j < sups.length) {
      val c = via(sups(j), at(j))
      if (c < m) { m = c; arg = j }
      j += 1
    }
    arg
  }

  /** Current min provider per slot: `Base` or a supporter index. */
  private val argmin: Array[Array[Int]] = Array.tabulate(td.n) { v =>
    Array.tabulate(td.bag(v).length) { i =>
      val arg = scan(v, i)
      require(value(v, i, arg) == td.sc(v)(i), s"sc invariant broken at ($v,${td.bag(v)(i)})")
      arg
    }
  }

  /** Phase-1 values for boundary-boundary slots, aligned with td.bag. */
  private val ovVal: Array[Array[Int]] =
    if (!trackOverlay) null
    else Array.tabulate(td.n) { v =>
      if (!boundaryFlag(v)) Array.emptyIntArray
      else td.bag(v).indices.map { i =>
        if (boundaryFlag(td.bag(v)(i))) phase1Value(v, i) else Inf
      }.toArray
    }

  private def phase1Value(o: Int, slot: Int): Int = {
    var m = td.base(o)(slot)
    val sups = td.supporters(o)(slot); val at = td.supSlots(o)(slot)
    var j = 0
    while (j < sups.length) {
      if (!boundaryFlag(sups(j))) {
        val s = via(sups(j), at(j))
        if (s < m) m = s
      }
      j += 1
    }
    m
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

  private def encode(owner: Int, slot: Int): Long = (td.rank(owner).toLong << 20) | slot.toLong
  private def decodeOwner(e: Long): Int = td.order((e >>> 20).toInt)
  private def decodeSlot(e: Long): Int = (e & 0xfffffL).toInt

  /** Write new input-edge weights into `base` and return the seed slots. */
  def seed(changes: Iterable[(Int, Int, Int)]): IndexedSeq[Long] = {
    val out = new mutable.ArrayBuffer[Long]()
    changes.foreach { case (u, v, w) =>
      require(w > 0, s"non-positive weight $w on edge ($u,$v)")
      val o = td.pairOwner(u, v)
      val x = if (o == u) v else u
      val slot = td.slotOf(o, x)
      require(slot >= 0, s"input edge ($u,$v) has no slot")
      if (td.base(o)(slot) != w) {
        td.base(o)(slot) = w
        out += encode(o, slot)
      }
    }
    out.toIndexedSeq
  }

  // Per-slot and per-owner scratch reused across process() calls: hash
  // maps per touched slot would dominate millisecond-scale update stages.
  // Epoch stamps make reuse O(1); concurrent calls (PostMHL
  // partition-parallel U-Stage 2) touch disjoint owners, so each row and
  // each affectedEpoch entry has a single writer.
  private val queuedEpoch = new Array[Array[Int]](td.n)
  /** First node of the slot's cause list in the current call's [[CauseLists]]. */
  private val causeHead = new Array[Array[Int]](td.n)
  private val affectedEpoch = new Array[Int](td.n)
  private val epochCounter = new java.util.concurrent.atomic.AtomicInteger(0)

  /** Recompute seeded slots bottom-up; propagate while `ownerFilter` admits
    * the owner, deferring the rest. Single pass must see seeds for all
    * admissible owners up front (propagation only moves rank-upward).
    */
  def process(seeds: IndexedSeq[Long],
              ownerFilter: Int => Boolean = _ => true,
              rescanSeeds: IndexedSeq[Long] = IndexedSeq.empty): ShortcutUpdateResult = {
    val epoch = epochCounter.incrementAndGet()
    val heap = new LongHeap
    val causes = new CauseLists
    val deferred = new mutable.ArrayBuffer[Long]()
    val deferredSet = new mutable.HashSet[Long]()
    val affected = new mutable.ArrayBuilder.ofInt
    val overlayChanges = new mutable.ArrayBuffer[(Int, Int, Int)]()

    def push(o: Int, s: Int, cause: Int): Unit =
      if (ownerFilter(o)) {
        var queued = queuedEpoch(o)
        if (queued == null) {
          queued = new Array[Int](td.bag(o).length)
          causeHead(o) = new Array[Int](queued.length)
          queuedEpoch(o) = queued
        }
        val heads = causeHead(o)
        if (queued(s) != epoch) {
          queued(s) = epoch
          heads(s) = -1
          heap.push(encode(o, s))
        }
        heads(s) = causes.add(cause, heads(s))
      } else {
        val e = encode(o, s)
        if (deferredSet.add(e)) deferred += e
      }
    seeds.foreach(e => push(decodeOwner(e), decodeSlot(e), Base))
    rescanSeeds.foreach(e => push(decodeOwner(e), decodeSlot(e), Rescan))

    while (heap.nonEmpty) {
      val e = heap.pop()
      val o = decodeOwner(e); val slot = decodeSlot(e)
      val b = td.bag(o)(slot)
      val sups = td.supporters(o)(slot); val at = td.supSlots(o)(slot)
      val old = td.sc(o)(slot)
      val am = argmin(o)(slot)

      var best = old; var bestArg = am
      var argminIncreased = false
      var mustRescan = false
      var ovTouched = false
      var node = causeHead(o)(slot)
      while (node != -1) {
        val p = causes.cause(node)
        if (p == Rescan) { mustRescan = true; ovTouched = true }
        else {
          val c = if (p == Base) td.base(o)(slot) else via(sups(p), at(p))
          if (c < best) { best = c; bestArg = p }
          if (p == am && c > old) argminIncreased = true
          if (trackOverlay && (p == Base || !boundaryFlag(sups(p)))) ovTouched = true
        }
        node = causes.next(node)
      }
      if (mustRescan || (best >= old && argminIncreased)) {
        // the attaining provider went up — full rescan for the new min
        bestArg = scan(o, slot)
        best = value(o, slot, bestArg)
      }
      if (trackOverlay && ovTouched && boundaryFlag(o) && boundaryFlag(b)) {
        val nov = phase1Value(o, slot)
        if (nov != ovVal(o)(slot)) { ovVal(o)(slot) = nov; overlayChanges += ((o, b, nov)) }
      }
      argmin(o)(slot) = bestArg
      if (best != old) {
        td.sc(o)(slot) = best
        if (affectedEpoch(o) != epoch) { affectedEpoch(o) = epoch; affected += o }
        // The changed entry supports every pair (b, c) inside o's bag: for
        // c ranked above b the pair's owner is b, otherwise c.
        val bg = td.bag(o); val refs = td.pairRefs(o)
        var j = 0
        while (j < slot) {
          val ref = refs(TD.pairIndex(j, slot))
          push(b, (ref >>> 32).toInt, ref.toInt)
          j += 1
        }
        j = slot + 1
        while (j < bg.length) {
          val ref = refs(TD.pairIndex(slot, j))
          push(bg(j), (ref >>> 32).toInt, ref.toInt)
          j += 1
        }
      }
    }
    ShortcutUpdateResult(affected.result(), deferred.toArray, overlayChanges.toIndexedSeq)
  }

  /** Convenience: seed + full single-threaded pass. */
  def applyInputChanges(changes: Iterable[(Int, Int, Int)]): ShortcutUpdateResult =
    process(seed(changes))
}

/** Binary min-heap of encoded slots. */
private final class LongHeap {
  private var a = new Array[Long](64)
  private var size = 0

  def nonEmpty: Boolean = size > 0

  def push(x: Long): Unit = {
    if (size == a.length) a = java.util.Arrays.copyOf(a, 2 * size)
    var i = size
    size += 1
    while (i > 0 && a((i - 1) >>> 1) > x) { a(i) = a((i - 1) >>> 1); i = (i - 1) >>> 1 }
    a(i) = x
  }

  def pop(): Long = {
    val top = a(0)
    size -= 1
    val x = a(size)
    var i = 0
    var done = size == 0
    while (!done) {
      var c = 2 * i + 1
      if (c >= size) done = true
      else {
        if (c + 1 < size && a(c + 1) < a(c)) c += 1
        if (a(c) < x) { a(i) = a(c); i = c } else done = true
      }
    }
    if (size > 0) a(i) = x
    top
  }
}

/** The cause lists of one `process` call: singly linked lists of provider
  * indices in two growable arrays, each list ending at node -1.
  */
private final class CauseLists {
  var cause = new Array[Int](256)
  var next = new Array[Int](256)
  private var size = 0

  /** Prepend `c` to the list starting at `head`; returns the new head. */
  def add(c: Int, head: Int): Int = {
    if (size == cause.length) {
      cause = java.util.Arrays.copyOf(cause, 2 * size)
      next = java.util.Arrays.copyOf(next, 2 * size)
    }
    cause(size) = c; next(size) = head
    size += 1
    size - 1
  }
}
