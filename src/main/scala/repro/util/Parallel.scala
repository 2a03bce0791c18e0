package repro.util

import java.util.concurrent.{Callable, Executors, Semaphore, ThreadFactory}

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

  /** Run all tasks with at most `p` running concurrently; rethrows the
    * first failure.
    */
  def run(tasks: Seq[() => Unit], p: Int): Unit = map(tasks, p)(_())

  /** Map variant preserving order. */
  def map[A, B](items: Seq[A], p: Int)(f: A => B): Seq[B] = {
    if (items.isEmpty) return Seq.empty
    if (p <= 1 || items.size == 1) return items.map(f)
    val sem = new Semaphore(p)
    val futures = items.map { a =>
      pool.submit(new Callable[B] {
        def call(): B = { sem.acquire(); try f(a) finally sem.release() }
      })
    }
    futures.map(_.get())
  }
}
