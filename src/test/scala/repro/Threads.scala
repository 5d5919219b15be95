package repro

import java.util.concurrent.{Callable, Executors, TimeUnit}

/** Thread helpers for the tests of kernels that keep per-thread scratch. */
object Threads {

  /** Run `f` on a new thread, which starts with fresh scratch. */
  def onNewThread[A](f: => A): A = {
    val pool = Executors.newSingleThreadExecutor()
    try pool.submit(new Callable[A] { def call(): A = f }).get()
    finally pool.shutdown()
  }

  /** `ids.map(f)`, computed on four threads at once: thread `t` takes the
    * ids `i` with `i % 4 == t`, in order.
    */
  def onFourThreads[A](ids: Seq[Int])(f: Int => A): Seq[A] = {
    val pool = Executors.newFixedThreadPool(4)
    try {
      val parts = (0 until 4).map { t =>
        pool.submit(new Callable[Seq[(Int, A)]] {
          def call(): Seq[(Int, A)] = ids.filter(_ % 4 == t).map(i => i -> f(i))
        })
      }
      parts.flatMap(_.get()).sortBy(_._1).map(_._2)
    } finally {
      pool.shutdown()
      pool.awaitTermination(10, TimeUnit.SECONDS)
    }
  }
}
