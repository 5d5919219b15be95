package repro.graph

import java.util.SplittableRandom
import java.util.concurrent.{Callable, Executors, TimeUnit}

import org.scalatest.funsuite.AnyFunSuite

import repro.im.RRSets

/** `Traversal.reverseReach` keeps its visited flags and queue in per-thread
  * scratch arrays. These tests check that the scratch never leaks state
  * between calls: across threads, across graphs of different sizes and
  * after a callback throws.
  */
class TraversalSpec extends AnyFunSuite {

  private lazy val big = GraphGen.powerLawDirected("trav-big", 2000, 16000, seed = 5)
  private lazy val small = GraphGen.uniformDirected("trav-small", 60, 400, seed = 7)

  /** RR set `i` of `g`: the IC reverse reach drawn from sample id `i`. */
  private def draw(g: SocialGraph, i: Int): Seq[Int] = {
    val rng = new SplittableRandom(RRSets.mix(19, i.toLong))
    Traversal.reverseReach(g, rng.nextInt(g.n))((e, _) => rng.nextDouble() < g.revProb(e)).toSeq
  }

  /** Nodes with in-edges from at least three other nodes. */
  private def wellFed(g: SocialGraph): Seq[Int] =
    (0 until g.n).filter(v => (g.revOff(v) until g.revOff(v + 1)).map(g.revSrc).filter(_ != v).distinct.size >= 3)

  /** Run `f` on a new thread, which starts with fresh scratch. */
  private def onNewThread[A](f: => A): A = {
    val pool = Executors.newSingleThreadExecutor()
    try pool.submit(new Callable[A] { def call(): A = f }).get()
    finally pool.shutdown()
  }

  test("concurrent draws on four threads equal serial draws") {
    val ids = 0 until 4000
    val serial = onNewThread(ids.map(draw(big, _)))
    val pool = Executors.newFixedThreadPool(4)
    try {
      val parts = (0 until 4).map { t =>
        pool.submit(new Callable[Seq[(Int, Seq[Int])]] {
          def call(): Seq[(Int, Seq[Int])] = ids.filter(_ % 4 == t).map(i => i -> draw(big, i))
        })
      }
      val concurrent = parts.flatMap(_.get()).sortBy(_._1).map(_._2)
      assert(concurrent == serial)
    } finally {
      pool.shutdown()
      pool.awaitTermination(10, TimeUnit.SECONDS)
    }
  }

  test("interleaving graphs of different sizes on one thread does not change results") {
    val ids = 0 until 500
    val smallAlone = onNewThread(ids.map(draw(small, _)))
    val bigAlone = onNewThread(ids.map(draw(big, _)))
    // Small first, so the scratch has to grow for the big graph.
    val interleaved = onNewThread(ids.map(i => (draw(small, i), draw(big, i))))
    assert(interleaved.map(_._1) == smallAlone)
    assert(interleaved.map(_._2) == bigAlone)
  }

  test("a throwing callback leaves the scratch clean") {
    val ids = 0 until 200
    val expected = onNewThread(ids.map(draw(big, _)))
    val after = onNewThread {
      // each root adds two tails before the third callback throws
      wellFed(big).take(200).foreach { root =>
        var calls = 0
        intercept[IllegalStateException] {
          Traversal.reverseReach(big, root) { (_, _) =>
            calls += 1
            if (calls == 3) throw new IllegalStateException("boom")
            true
          }
        }
      }
      ids.map(draw(big, _))
    }
    assert(after == expected)
  }

  test("re-entering reverseReach from its callback is rejected") {
    val expected = onNewThread((0 until 50).map(draw(small, _)))
    val after = onNewThread {
      intercept[IllegalArgumentException] {
        Traversal.reverseReach(big, wellFed(big).head)((_, _) => Traversal.reverseReach(small, 1)((_, _) => true).nonEmpty)
      }
      (0 until 50).map(draw(small, _))
    }
    assert(after == expected)
  }
}
