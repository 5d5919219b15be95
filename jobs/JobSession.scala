package repro.jobs

import org.apache.spark.sql.SparkSession

/** The SparkSession of the spark-submit entrypoints. */
object JobSession {

  /** The master every session uses: `SPARK_MASTER`, or `local[*]`. */
  def master: String = sys.env.getOrElse("SPARK_MASTER", "local[*]")

  /** Run `body` on a session named `app`, stopped however `body` ends. */
  def run(app: String)(body: SparkSession => Unit): Unit = {
    val spark = SparkSession.builder().master(master).appName(app).getOrCreate()
    try body(spark) finally spark.stop()
  }
}
