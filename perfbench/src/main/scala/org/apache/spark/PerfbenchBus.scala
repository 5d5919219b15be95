package org.apache.spark

/** Lets the benchmark wait until Spark has delivered every queued listener
  * event, so the job and task events of a finished call are attributed
  * before the benchmark reads them. The bus is private to Spark, hence this
  * file's package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
