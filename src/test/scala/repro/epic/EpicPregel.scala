package repro.epic

import org.apache.spark.graphx.{Edge, EdgeDirection, Graph, VertexId}
import org.apache.spark.sql.SparkSession

import repro.graph.SocialGraph
import repro.items.Adoption

/** EPIC diffusion as GraphX Pregel message passing (the distributed-
  * dataflow form of `EpicSimulator`, per the repro hint).
  *
  * The edge world is fixed up front via the same `(worldSeed, src, dst)`
  * hash coupling used by `HashedWorld.diffuseFixedWorld`, so both
  * implementations walk the identical deterministic world and must agree
  * node-for-node — a cross-check enforced in tests.
  *
  * Vertex state is `(desireMask, adoptionMask)`; a message is the union of
  * senders' adoption masks; `vprog` re-runs the EPIC adoption rule on the
  * enlarged desire set.
  */
object EpicPregel {

  def diffuseFixedWorld(spark: SparkSession, g: SocialGraph, alloc: Map[Int, Int],
                        util: Array[Double], worldSeed: Long): Array[Int] = {
    val sc = spark.sparkContext

    val liveEdges = {
      val buf = new scala.collection.mutable.ArrayBuffer[Edge[Unit]]()
      var u = 0
      while (u < g.n) {
        var e = g.fwdOff(u)
        while (e < g.fwdOff(u + 1)) {
          if (HashedWorld.edgeLive(g, worldSeed)(e, u)) buf += Edge(u.toLong, g.fwdDst(e).toLong, ())
          e += 1
        }
        u += 1
      }
      sc.parallelize(buf.toSeq)
    }

    val vertices = sc.parallelize(
      (0 until g.n).map(v => (v.toLong: VertexId, (alloc.getOrElse(v, 0), 0)))
    )

    val graph = Graph(vertices, liveEdges, defaultVertexAttr = (0, 0))

    val result = graph.pregel(
      initialMsg = 0,
      activeDirection = EdgeDirection.Out,
    )(
      vprog = (_: VertexId, attr: (Int, Int), msg: Int) => {
        val desire = attr._1 | msg
        val adopted = Adoption.adopt(util, desire, attr._2)
        (desire, adopted)
      },
      sendMsg = triplet =>
        if ((triplet.srcAttr._2 & ~triplet.dstAttr._1) != 0)
          Iterator((triplet.dstId, triplet.srcAttr._2))
        else Iterator.empty,
      mergeMsg = (a: Int, b: Int) => a | b,
    )

    val adoption = new Array[Int](g.n)
    result.vertices.collect().foreach { case (id, (_, a)) => adoption(id.toInt) = a }
    result.unpersist(); graph.unpersist()
    adoption
  }
}
