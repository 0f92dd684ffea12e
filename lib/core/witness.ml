type key = string
type value = int

type txn = {
  proc : int;
  reads : (key * value option) list;
  writes : (key * value) list;
  inv : int;
  resp : int;
  ts : int;
  rank : int;
}

type mode = [ `Strict | `Rss | `Sequential ]

let mutator_rank ~writes = if writes = [] then 1 else 0
