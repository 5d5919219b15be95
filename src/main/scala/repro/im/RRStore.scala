package repro.im

import scala.collection.mutable.ArrayBuffer

import repro.exec.SeededBatch

/** The RR sets of one IMM/PRIMM call, in sample-id order: appended as they
  * are drawn, and packed into blocks when a selection or coverage count
  * needs them ([[pack]]). A pack splits the unpacked tail into at most
  * `parallelism` blocks of consecutive sets, builds each block on one thread
  * of [[SeededBatch.forEach]]'s pool (on the calling thread when
  * `parallelism` is 1), and adds the blocks' node counts to [[count]]. A
  * packed block is never rebuilt, and no output of [[MaxCover]] depends on
  * how the sets were split into blocks.
  *
  * @param n nodes; every member of every set must lie in `[0, n)`
  */
final class RRStore(val n: Int, val parallelism: Int) {
  require(n >= 0 && parallelism >= 1, s"an RR store needs n >= 0 and parallelism >= 1, got n=$n parallelism=$parallelism")

  private val packed = ArrayBuffer.empty[RRStore.Block]
  private val tail = ArrayBuffer.empty[Array[Array[Int]]]
  private var packedSets = 0
  private var tailSets = 0

  /** `count(u)`: the packed sets that hold node `u`. */
  private[im] val count = new Array[Int](n)

  /** The sets appended so far, packed or not. */
  def size: Int = packedSets + tailSets

  /** Append `sets` after the sets already held; their ids run on from [[size]]. */
  def append(sets: Array[Array[Int]]): Unit = if (sets.nonEmpty) {
    require(size.toLong + sets.length <= Int.MaxValue, s"an RR store holds at most ${Int.MaxValue} sets")
    tail += sets
    tailSets += sets.length
  }

  /** Pack the unpacked tail, if any, into blocks. A member outside `[0, n)`
    * fails the pack with an `IllegalArgumentException` naming its set id and
    * node, once every block task has stopped; the store is then unchanged.
    */
  def pack(): Unit = if (tailSets > 0) {
    val sets = Array.concat(tail.toSeq: _*)
    val parts = math.max(1, math.min(parallelism, sets.length / RRStore.MinBlockSets))
    val built = new Array[RRStore.Block](parts)
    SeededBatch.forEach(parallelism, parts) { b =>
      val from = (sets.length.toLong * b / parts).toInt
      val until = (sets.length.toLong * (b + 1) / parts).toInt
      built(b) = RRStore.Block(sets, from, until, packedSets + from, n)
    }
    built.foreach { blk =>
      var u = 0
      while (u < n) { count(u) += blk.idxOff(u + 1) - blk.idxOff(u); u += 1 }
    }
    packed ++= built
    packedSets += sets.length
    tail.clear()
    tailSets = 0
  }

  /** Every set, packed, in id order. */
  private[im] def blocks: Array[RRStore.Block] = { pack(); packed.toArray }
}

object RRStore {

  /** A tail is split into blocks of at least this many sets, so a small
    * tail packs into one block: each block costs an `n + 1` index of its own
    * and a walk per greedy pick.
    */
  private val MinBlockSets = 4096

  /** One store holding `rr` in one block, packed on the calling thread. */
  def of(rr: collection.IndexedSeq[Array[Int]], n: Int): RRStore = {
    val store = new RRStore(n, 1)
    store.append(rr.toArray)
    store.pack()
    store
  }

  /** Sets `base` to `base + length - 1` of a store, flat: set `s`'s members
    * are `members(off(s))` to `members(off(s + 1) - 1)`. The inverted index
    * lists, for node `u`, the sets holding it in increasing order:
    * `idx(idxOff(u))` to `idx(idxOff(u + 1) - 1)`, as ids within the block.
    */
  private[im] final class Block(val base: Int, val off: Array[Int], val members: Array[Int],
                                val idxOff: Array[Int], val idx: Array[Int]) {
    def length: Int = off.length - 1
  }

  private[im] object Block {
    /** The block of `sets(from)` to `sets(until - 1)`, whose first set has id `base`. */
    def apply(sets: Array[Array[Int]], from: Int, until: Int, base: Int, n: Int): Block = {
      val m = until - from
      val off = new Array[Int](m + 1)
      var total = 0L
      var s = 0
      while (s < m) { total += sets(from + s).length; s += 1; off(s) = total.toInt }
      require(total <= Int.MaxValue, s"RR sets $base to ${base + m - 1} hold $total members, more than one block holds")
      val members = new Array[Int](total.toInt)
      val idxOff = new Array[Int](n + 1)
      s = 0
      while (s < m) {
        val set = sets(from + s)
        var j = 0
        while (j < set.length) {
          val v = set(j)
          if (v < 0 || v >= n) throw new IllegalArgumentException(s"RR set ${base + s} holds node $v, outside [0, $n)")
          members(off(s) + j) = v
          idxOff(v + 1) += 1
          j += 1
        }
        s += 1
      }
      var u = 0
      while (u < n) { idxOff(u + 1) += idxOff(u); u += 1 }
      val idx = new Array[Int](members.length)
      val cur = java.util.Arrays.copyOf(idxOff, n)
      s = 0
      while (s < m) {
        var e = off(s)
        while (e < off(s + 1)) { val v = members(e); idx(cur(v)) = s; cur(v) += 1; e += 1 }
        s += 1
      }
      new Block(base, off, members, idxOff, idx)
    }
  }
}
