from perfbench.run import bootstrap

bootstrap()
