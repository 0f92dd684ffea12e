(* Deciding a model over a fixed write order: the dependency graph in flat
   int arrays, barrier chains for real time, then Kahn's sort. A stuck sort
   yields one cycle: walk back over stuck predecessors to a repeated node,
   then take the shortest cycle through it. *)

module W = Witness

type ids = {
  n_keys : int; roff : int array; rkey : int array;
  woff : int array; wkey : int array; wval : int array;
  n_procs : int; pid : int array;
}

(* Dense ids by first sight; a run of one name (a Gryff key) skips the table. *)
let interner equal dummy =
  let ids = Hashtbl.create 16 and last = ref dummy and last_id = ref (-1) in
  let id x =
    if !last_id < 0 || not (equal x !last) then begin
      last := x;
      last_id := (try Hashtbl.find ids x with Not_found -> Hashtbl.length ids);
      if !last_id = Hashtbl.length ids then Hashtbl.add ids x !last_id
    end;
    !last_id
  in
  (id, fun () -> Hashtbl.length ids)

let index txns n =
  let key, n_keys = interner String.equal "" and proc, n_procs = interner Int.equal 0 in
  let rec fill a j f = function [] -> () | x :: l -> a.(j) <- f x; fill a (j + 1) f l in
  let flatten field f =
    let off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do off.(i + 1) <- off.(i) + List.length (field txns.(i)) done;
    let a = Array.make off.(n) 0 in
    for i = 0 to n - 1 do fill a off.(i) f (field txns.(i)) done;
    (off, a)
  in
  let roff, rkey = flatten (fun x -> x.W.reads) (fun (k, _) -> key k) in
  let woff, wkey = flatten (fun x -> x.W.writes) (fun (k, _) -> key k) in
  let wval = snd (flatten (fun x -> x.W.writes) snd) in
  let pid = Array.init n (fun i -> proc txns.(i).W.proc) in
  { n_keys = n_keys (); roff; rkey; woff; wkey; wval; n_procs = n_procs (); pid }

let group_by n_groups group seq =
  let off = Array.make (n_groups + 1) 0 and by = Array.make (Array.length seq) 0 in
  Array.iter (fun e -> off.(group.(e)) <- off.(group.(e)) + 1) seq;
  for g = 1 to n_groups do off.(g) <- off.(g) + off.(g - 1) done;
  for q = Array.length seq - 1 downto 0 do
    let g = group.(seq.(q)) in
    off.(g) <- off.(g) - 1;
    by.(off.(g)) <- seq.(q)
  done;
  (off, by)

let orders txns n ix =
  (* Stable sorts; arrival order is usually sorted already. *)
  let sort cmp a =
    let rec sorted q = q >= n || (cmp a.(q - 1) a.(q) <= 0 && sorted (q + 1)) in
    if not (sorted 1) then Array.stable_sort cmp a
  in
  let ord = Array.init n Fun.id in
  sort (fun i j ->
      let a = txns.(i) and b = txns.(j) in
      if a.W.ts <> b.W.ts then Int.compare a.W.ts b.W.ts
      else if a.W.rank <> b.W.rank then Int.compare a.W.rank b.W.rank
      else Int.compare a.W.inv b.W.inv) ord;
  let sess = snd (group_by ix.n_procs ix.pid (Array.init n Fun.id)) in
  sort (fun i j ->
      if ix.pid.(i) <> ix.pid.(j) then Int.compare ix.pid.(i) ix.pid.(j)
      else Int.compare txns.(i).W.inv txns.(j).W.inv) sess;
  (ord, sess)

(* Nodes [0, n) are txns, the rest barriers; edge [e] runs from [src.(e)]
   to [dst.(e)] and has kind [kinds.(kind.(e))]. *)
type graph = {
  mutable nodes : int; mutable m : int;
  mutable src : int array; mutable dst : int array; mutable kind : int array;
}

let kinds = [| "po"; "ww"; "rf"; "rw"; "msg"; "rt" |]
let po = 0 and ww = 1 and rf = 2 and rw = 3 and msg = 4 and rt = 5

let edge g k a b =
  if g.m = Array.length g.src then begin
    let grow a = Array.append a (Array.make (max 16 g.m) 0) in
    g.src <- grow g.src; g.dst <- grow g.dst; g.kind <- grow g.kind
  end;
  g.src.(g.m) <- a; g.dst.(g.m) <- b; g.kind.(g.m) <- k;
  g.m <- g.m + 1

(* Every source [(sg.(s), st.(s))] that completed reaches every
   destination [(dg.(d), dt.(d))] of its group invoked after its response:
   sorted by (group, resp), each source feeds its own barrier, a group's
   barriers form a chain, and a destination hangs off the last barrier of
   its group that responded before its invocation. *)
let rt_chain g txns (sg, st) (dg, dt) =
  let resp s = txns.(st.(s)).W.resp in
  let s = Array.of_list (List.filter (fun s -> resp s <> max_int) (List.init (Array.length st) Fun.id)) in
  Array.sort
    (fun a b -> if sg.(a) <> sg.(b) then Int.compare sg.(a) sg.(b) else Int.compare (resp a) (resp b))
    s;
  let base = g.nodes in
  g.nodes <- base + Array.length s;
  Array.iteri
    (fun q a ->
      edge g rt st.(a) (base + q);
      if q > 0 && sg.(s.(q - 1)) = sg.(a) then edge g rt (base + q - 1) (base + q))
    s;
  Array.iteri
    (fun d grp ->
      let inv = txns.(dt.(d)).W.inv and lo = ref (-1) and hi = ref (Array.length s) in
      while !hi - !lo > 1 do
        let a = s.((!lo + !hi) / 2) in
        if sg.(a) < grp || (sg.(a) = grp && resp a < inv) then lo := (!lo + !hi) / 2
        else hi := (!lo + !hi) / 2
      done;
      if !lo >= 0 && sg.(s.(!lo)) = grp then edge g rt (base + !lo) dt.(d))
    dg

exception Illegal of string

let build ~edges ~mode txns =
  let n = Array.length txns in
  let ix = index txns n in
  let ord, sess = orders txns n ix in
  let g = { nodes = n; m = 0; src = [||]; dst = [||]; kind = [||] } in
  let owner off =
    let a = Array.make off.(n) 0 in
    for i = 0 to n - 1 do Array.fill a off.(i) (off.(i + 1) - off.(i)) i done;
    a
  in
  let wtxn = owner ix.woff and rtxn = owner ix.roff in
  for q = 1 to n - 1 do
    if ix.pid.(sess.(q - 1)) = ix.pid.(sess.(q)) then edge g po sess.(q - 1) sess.(q)
  done;
  (* Each key's visible writes (a txn's last one of the key) in claimed
     order, as positions in [by]. A run of writers that wrote one value
     (an rmw writing back what it read) reads as one write: [at] maps
     (key, value) to the run's first position, [after q] is the first
     position past [q]'s run. *)
  let last = Array.make ix.n_keys (-1) and seq = ref [] in
  Array.iter
    (fun i ->
      for j = ix.woff.(i + 1) - 1 downto ix.woff.(i) do
        if last.(ix.wkey.(j)) <> i then (last.(ix.wkey.(j)) <- i; seq := j :: !seq)
      done)
    ord;
  let first, by = group_by ix.n_keys ix.wkey (Array.of_list (List.rev !seq)) in
  let same q = q > first.(ix.wkey.(by.(q))) && ix.wval.(by.(q - 1)) = ix.wval.(by.(q)) in
  let rec after q = if q + 1 < Array.length by && same (q + 1) then after (q + 1) else q + 1 in
  let at = Hashtbl.create (Array.length by) in
  Array.iteri
    (fun q j ->
      if q > first.(ix.wkey.(j)) then edge g ww wtxn.(by.(q - 1)) wtxn.(j);
      if not (same q) then Hashtbl.replace at (ix.wkey.(j), ix.wval.(j)) q)
    by;
  (* A complete read gets rf from its run and rw to the writer after it. *)
  for i = 0 to n - 1 do
    if txns.(i).W.resp <> max_int then
      List.iteri
        (fun r (key, v) ->
          let k = ix.rkey.(ix.roff.(i) + r) in
          let q =
            match v with
            | None -> first.(k)
            | Some v -> (
              match Hashtbl.find_opt at (k, v) with
              | None -> raise (Illegal (Fmt.str "legality: txn %d read %s=%d but no txn wrote it" i key v))
              | Some q -> edge g rf wtxn.(by.(q)) i; after q)
          in
          if q < first.(k + 1) && wtxn.(by.(q)) <> i then edge g rw i wtxn.(by.(q)))
        txns.(i).W.reads
  done;
  List.iter (fun (a, b) -> edge g msg a b) edges;
  let all = Array.init n Fun.id in
  let muts = Array.of_seq (Seq.filter (fun i -> ix.woff.(i + 1) > ix.woff.(i)) (Array.to_seq all)) in
  let one a = (Array.make (Array.length a) 0, a) in
  (match mode with
  | `Sequential -> ()
  | `Strict -> rt_chain g txns (one all) (one all)
  | `Rss ->
    rt_chain g txns (one muts) (one muts);
    rt_chain g txns (ix.wkey, wtxn) (ix.rkey, rtxn));
  g

let cycle g n (off, out) stuck =
  let ioff, into = group_by g.nodes g.dst (Array.init g.m Fun.id) in
  let seen = Array.make g.nodes false in
  let rec back v =
    if seen.(v) then v
    else begin
      seen.(v) <- true;
      let q = ref ioff.(v) in
      while not (stuck g.src.(into.(!q))) do incr q done;
      back g.src.(into.(!q))
    end
  in
  let c = back (Option.get (Seq.find stuck (Seq.init g.nodes Fun.id))) in
  let via = Array.make g.nodes (-1) and queue = Queue.create () in
  let rec bfs v q =
    if q = off.(v + 1) then (let v = Queue.pop queue in bfs v off.(v))
    else if g.dst.(out.(q)) = c then out.(q)
    else begin
      let w = g.dst.(out.(q)) in
      if stuck w && via.(w) < 0 then (via.(w) <- out.(q); Queue.add w queue);
      bfs v (q + 1)
    end
  in
  let rec path e acc = if g.src.(e) = c then e :: acc else path via.(g.src.(e)) (e :: acc) in
  let es = path (bfs c off.(c)) [] in
  (* Named from a txn; a run of barrier hops is named by its last edge, rt. *)
  let k = Option.get (List.find_index (fun e -> g.src.(e) < n) es) in
  let es = List.filteri (fun i _ -> i >= k) es @ List.filteri (fun i _ -> i < k) es in
  List.fold_left
    (fun s e -> if g.dst.(e) < n then Fmt.str "%s -%s-> txn %d" s kinds.(g.kind.(e)) g.dst.(e) else s)
    (Fmt.str "cycle: txn %d" g.src.(List.hd es)) es

let check ?(edges = []) ~mode txns =
  match build ~edges ~mode txns with
  | exception Illegal m -> Error m
  | g ->
    let (off, out) as fwd = group_by g.nodes g.src (Array.init g.m Fun.id) in
    let indeg = Array.make g.nodes 0 and queue = Array.make g.nodes 0 and tail = ref 0 in
    for e = 0 to g.m - 1 do indeg.(g.dst.(e)) <- indeg.(g.dst.(e)) + 1 done;
    let push v = if indeg.(v) = 0 then (queue.(!tail) <- v; incr tail) in
    for v = 0 to g.nodes - 1 do push v done;
    let head = ref 0 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      for q = off.(v) to off.(v + 1) - 1 do
        let w = g.dst.(out.(q)) in
        indeg.(w) <- indeg.(w) - 1;
        push w
      done
    done;
    let n = Array.length txns in
    if !tail < g.nodes then Error (cycle g n fwd (fun v -> indeg.(v) > 0))
    else Ok (Array.of_seq (Seq.filter (fun v -> v < n) (Array.to_seq queue)))
