package repro.exec

import org.scalatest.funsuite.AnyFunSuite

/** [[NodeMarks]] is the working memory of the IC RR loop, the Com-IC
  * reverse search and EPIC diffusion. Its contract: members keep insertion
  * order however far reserving grows the list, an add without room throws
  * and marks nothing, every flag is false once the marks are released (also
  * after a throw), held marks cannot be acquired again, and a larger graph
  * starts with clean flags.
  */
class NodeMarksSpec extends AnyFunSuite {

  private def allClear(m: NodeMarks, n: Int): Boolean = (0 until n).forall(!m.has(_))

  test("members keep insertion order past the initial capacity") {
    val n = 1000
    val order = new scala.util.Random(3).shuffle((0 until n).toList).take(700)
    val m = new NodeMarks().acquire(n, "held")
    // room for a node's worth at a time, as a search reserves per expanded node
    order.grouped(9).foreach { part => m.reserve(part.size); part.foreach(m.add) }
    assert(m.size == 700)
    assert(order.indices.map(m(_)) == order)
    assert(m.toArray.toSeq == order)
    assert(order.forall(m.has) && (0 until n).count(m.has) == 700)
    m.release()
    assert(allClear(m, n) && m.size == 0)
  }

  test("an add without reserved room throws and marks nothing") {
    val m = new NodeMarks().acquire(500, "held")
    // fill whatever room the list starts with
    val full = (0 until 500).find { v =>
      try { m.add(v); false } catch { case _: ArrayIndexOutOfBoundsException => true }
    }
    assert(full.contains(m.size) && !m.has(m.size))
    m.reserve(1)
    m.add(m.size)
    assert(m.toArray.toSeq == (0 until m.size))
    m.release()
    assert(allClear(m, 500))
  }

  test("clear empties the marks and keeps them held") {
    val m = new NodeMarks().acquire(50, "held")
    m.reserve(3)
    Seq(4, 9, 2).foreach(m.add)
    m.clear()
    assert(m.size == 0 && allClear(m, 50))
    intercept[IllegalArgumentException](m.acquire(50, "held"))
    m.reserve(1)
    m.add(9)
    assert(m.toArray.toSeq == Seq(9))
    m.release()
    assert(allClear(m, 50))
  }

  test("flags are clear after a caller throws between acquire and release") {
    val m = new NodeMarks
    intercept[IllegalStateException] {
      val held = m.acquire(200, "held")
      try {
        held.reserve(200)
        (0 until 200 by 3).foreach(held.add)
        throw new IllegalStateException("boom")
      } finally held.release()
    }
    assert(allClear(m, 200) && m.size == 0)
    m.acquire(200, "held").release()
  }

  test("acquiring held marks throws and leaves them as they were") {
    val m = new NodeMarks().acquire(30, "marks re-entered")
    m.reserve(2)
    Seq(7, 3).foreach(m.add)
    val e = intercept[IllegalArgumentException](m.acquire(30, "marks re-entered"))
    assert(e.getMessage == "requirement failed: marks re-entered")
    assert(m.toArray.toSeq == Seq(7, 3))
    m.release()
    assert(allClear(m, 30))
    m.acquire(30, "marks re-entered").release()
  }

  test("a larger graph after a smaller one starts with clean flags") {
    val m = new NodeMarks
    val small = m.acquire(20, "held")
    small.reserve(20)
    (0 until 20).foreach(small.add)
    small.release()
    val big = m.acquire(5000, "held")
    assert(big.size == 0 && allClear(big, 5000))
    big.reserve(3)
    Seq(4999, 19, 0).foreach(big.add)
    big.release()
    assert(allClear(m.acquire(20, "held"), 5000))
    m.release()
  }
}
