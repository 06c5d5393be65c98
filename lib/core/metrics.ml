type t = {
  mutable executions : int;
  mutable retrievals : int;
  mutable interpolations : int;
  mutable pixels_processed : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable refreshes : int;
}

let create () =
  { executions = 0; retrievals = 0; interpolations = 0; pixels_processed = 0;
    cache_hits = 0; cache_misses = 0; refreshes = 0 }

let reset t =
  t.executions <- 0;
  t.retrievals <- 0;
  t.interpolations <- 0;
  t.pixels_processed <- 0;
  t.cache_hits <- 0;
  t.cache_misses <- 0;
  t.refreshes <- 0
