package repro

import repro.core.Allocation
import repro.graph.SocialGraph
import repro.im.PRIMM

/** Hashing helpers of the golden suites; their expected strings digest the
  * exact streams these methods add.
  */
object Golden {

  /** 64-bit FNV-1a over a stream of longs. */
  final class Digest {
    private var h = 0xCBF29CE484222325L
    def add(x: Long): Unit = h = (h ^ x) * 0x100000001B3L
    def ints(a: Array[Int]): Unit = { add(a.length.toLong); a.foreach(x => add(x.toLong)) }
    def doubles(a: Array[Double]): Unit = {
      add(a.length.toLong); a.foreach(x => add(java.lang.Double.doubleToLongBits(x)))
    }
    def flags(a: Array[Boolean]): Unit = { a.indices.foreach(i => if (a(i)) add(i.toLong)); add(-1L) }
    def result(r: PRIMM.Result): Unit = { ints(r.seeds); add(r.rrCount.toLong); doubles(r.sigmaHat) }
    def alloc(a: Allocation.Alloc): Unit =
      a.toSeq.sorted.foreach { case (v, mask) => add(v.toLong); add(mask.toLong) }
    def hex: String = f"$h%016x"
  }

  def digest(f: Digest => Unit): String = { val d = new Digest; f(d); d.hex }

  /** Highest out-degree nodes first (ties to the smaller id). */
  def hubs(g: SocialGraph, k: Int): Array[Int] =
    (0 until g.n).sortBy(u => (-TestInputs.outDeg(g, u), u)).take(k).toArray
}
