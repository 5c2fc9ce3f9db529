package org.apache.spark

/** Spark delivers listener events asynchronously; a spec that counts events
  * must wait for every event posted so far. The drain is `private[spark]`,
  * hence this bridge in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
