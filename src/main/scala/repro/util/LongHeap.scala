package repro.util

import java.util.Arrays

/** Binary min-heap of `Long` keys, growing as needed. Its users pack a
  * priority and a vertex into one key, `(priority << 32) | v`.
  */
final class LongHeap(capacity: Int) {
  private var a = new Array[Long](math.max(capacity, 16))
  private var size = 0

  def isEmpty: Boolean = size == 0

  /** The smallest key; the heap must not be empty. */
  def peek(): Long = a(0)

  def push(k: Long): Unit = {
    if (size == a.length) a = Arrays.copyOf(a, 2 * size)
    var i = size
    size += 1
    while (i > 0 && a((i - 1) >> 1) > k) { a(i) = a((i - 1) >> 1); i = (i - 1) >> 1 }
    a(i) = k
  }

  /** Removes and returns the smallest key; the heap must not be empty. */
  def pop(): Long = {
    val top = a(0)
    size -= 1
    val last = a(size)
    var i = 0
    var c = 1
    while (c < size) {
      if (c + 1 < size && a(c + 1) < a(c)) c += 1
      if (a(c) < last) { a(i) = a(c); i = c; c = 2 * i + 1 } else c = size
    }
    a(i) = last
    top
  }
}
