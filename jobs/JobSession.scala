package repro.jobs

import org.apache.spark.sql.SparkSession

/** Shared SparkSession setup for the spark-submit entrypoints. */
object JobSession {
  def create(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .getOrCreate()
}
