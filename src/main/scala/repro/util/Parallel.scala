package repro.util

import java.util.concurrent.{Callable, ExecutionException, Executors, Semaphore, ThreadFactory}
import java.util.concurrent.atomic.AtomicReference

/** Fixed-width task parallelism for the paper's partition-parallel index
  * maintenance stages (Exp 6 sweeps the thread count p).
  *
  * A shared daemon cached pool is reused across calls (a fresh pool per
  * update stage would dominate millisecond-scale stage times); the width
  * limit p is enforced with a semaphore so Exp 6's sweep stays honest.
  */
object Parallel {

  private lazy val pool = Executors.newCachedThreadPool(new ThreadFactory {
    private val n = new java.util.concurrent.atomic.AtomicInteger()
    def newThread(r: Runnable): Thread = {
      val t = new Thread(r, s"repro-par-${n.incrementAndGet()}")
      t.setDaemon(true)
      t
    }
  })

  /** Thrown by a task that stops because another task of the same call
    * failed. A call rethrows the failure, never this.
    */
  final class Abandoned extends RuntimeException("another task of the call failed", null, false, false)

  /** Run all tasks with at most `p` running concurrently; rethrows the
    * first failure.
    */
  def run(tasks: Seq[() => Unit], p: Int): Unit = map(tasks, p)(_())

  /** Map variant preserving order. When a task fails, the tasks that have
    * not started are skipped, the running ones are waited for, and then
    * the first failure (not an [[Abandoned]]) is rethrown as it was
    * thrown.
    */
  def map[A, B](items: Seq[A], p: Int)(f: A => B): Seq[B] = {
    if (items.isEmpty) return Seq.empty
    if (p <= 1 || items.size == 1) return items.map(f)
    val sem = new Semaphore(p)
    val failure = new AtomicReference[Throwable]()
    val futures = items.map { a =>
      pool.submit(new Callable[B] {
        def call(): B = {
          sem.acquire()
          try { if (failure.get != null) null.asInstanceOf[B] else f(a) }
          catch {
            case t: Throwable =>
              failure.accumulateAndGet(t, (first, next) =>
                if (first == null || first.isInstanceOf[Abandoned] && !next.isInstanceOf[Abandoned]) next
                else first)
              throw t
          } finally sem.release()
        }
      })
    }
    val out = futures.map(fu => try fu.get() catch { case _: ExecutionException => null.asInstanceOf[B] })
    if (failure.get != null) throw failure.get
    out
  }
}
