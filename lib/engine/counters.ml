type t = {
  mutable facts_derived : int;
  mutable firings : int;
  mutable probes : int;
  mutable scanned : int;
  mutable iterations : int;
  mutable merge_steps : int;
  mutable gallops : int;
  mutable subsumed : int;
}

let create () =
  { facts_derived = 0;
    firings = 0;
    probes = 0;
    scanned = 0;
    iterations = 0;
    merge_steps = 0;
    gallops = 0;
    subsumed = 0
  }

let reset c =
  c.facts_derived <- 0;
  c.firings <- 0;
  c.probes <- 0;
  c.scanned <- 0;
  c.iterations <- 0;
  c.merge_steps <- 0;
  c.gallops <- 0;
  c.subsumed <- 0

let add acc c =
  acc.facts_derived <- acc.facts_derived + c.facts_derived;
  acc.firings <- acc.firings + c.firings;
  acc.probes <- acc.probes + c.probes;
  acc.scanned <- acc.scanned + c.scanned;
  acc.iterations <- acc.iterations + c.iterations;
  acc.merge_steps <- acc.merge_steps + c.merge_steps;
  acc.gallops <- acc.gallops + c.gallops;
  acc.subsumed <- acc.subsumed + c.subsumed

let to_json c =
  Json.Obj
    [ ("facts_derived", Json.Int c.facts_derived);
      ("firings", Json.Int c.firings);
      ("probes", Json.Int c.probes);
      ("scanned", Json.Int c.scanned);
      ("iterations", Json.Int c.iterations);
      ("merge_steps", Json.Int c.merge_steps);
      ("gallops", Json.Int c.gallops);
      ("subsumed", Json.Int c.subsumed)
    ]

let pp ppf c =
  Format.fprintf ppf
    "facts=%d firings=%d probes=%d scanned=%d iterations=%d merge_steps=%d \
     gallops=%d subsumed=%d"
    c.facts_derived c.firings c.probes c.scanned c.iterations c.merge_steps
    c.gallops c.subsumed
