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
module Interner (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  let make size dummy =
    let ids = H.create size and last = ref dummy and last_id = ref (-1) in
    let id x =
      if !last_id < 0 || not (K.equal x !last) then begin
        last := x;
        last_id := (try H.find ids x with Not_found -> H.length ids);
        if !last_id = H.length ids then H.add ids x !last_id
      end;
      !last_id
    in
    (id, fun () -> H.length ids)
end

module Keys = Interner (String)
module Procs = Interner (struct type t = int let equal = Int.equal let hash x = x land max_int end)

let iota n =
  let a = Array.make n 0 in
  for i = 1 to n - 1 do a.(i) <- i done;
  a

(* The members of [0, n) that [keep] keeps, ascending. *)
let select n keep =
  let a = Array.make n 0 and m = ref 0 in
  for i = 0 to n - 1 do if keep i then (a.(!m) <- i; incr m) done;
  Array.sub a 0 !m

(* The key table starts at one bucket per transaction: a history over
   many keys then resizes it rarely, and one over few keys finds each in
   a short chain. *)
let index txns n =
  let key, n_keys = Keys.make n "" and proc, n_procs = Procs.make 16 0 in
  let offsets field =
    let off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do off.(i + 1) <- off.(i) + List.length (field txns.(i)) done;
    off
  in
  let roff = offsets (fun x -> x.W.reads) and woff = offsets (fun x -> x.W.writes) in
  let rkey = Array.make roff.(n) 0 and wkey = Array.make woff.(n) 0 in
  let wval = Array.make woff.(n) 0 and pid = Array.make n 0 in
  let rec reads j = function [] -> () | (k, _) :: l -> rkey.(j) <- key k; reads (j + 1) l in
  let rec writes j = function
    | [] -> ()
    | (k, v) :: l -> wkey.(j) <- key k; wval.(j) <- v; writes (j + 1) l
  in
  for i = 0 to n - 1 do reads roff.(i) txns.(i).W.reads done;
  for i = 0 to n - 1 do writes woff.(i) txns.(i).W.writes; pid.(i) <- proc txns.(i).W.proc done;
  { n_keys = n_keys (); roff; rkey; woff; wkey; wval; n_procs = n_procs (); pid }

let group_by n_groups group seq =
  let off, by = Group.by n_groups (Array.length seq) (fun q -> group.(seq.(q))) in
  Array.iteri (fun p q -> by.(p) <- seq.(q)) by;
  (off, by)

(* A stable merge sort of int arrays. [Array.stable_sort] writes through
   [caml_modify] and allocates a closure per merge, about two minor words
   per element; this one allocates only its scratch. The upper half sorts
   into a scratch half as long, the lower half into the top of [a], and
   the two merge up from the bottom. Arrival order is usually sorted
   already, and then nothing moves. *)
let sort_ints cmp a =
  let n = Array.length a in
  let rec sorted q = q >= n || (cmp a.(q - 1) a.(q) <= 0 && sorted (q + 1)) in
  (* Merge [s1.(i1 ..< e1)] and [s2.(i2 ..< e2)] into [d] from [k]; one of
     them may sit at the top of [d], where the blit of its rest is a no-op. *)
  let rec merge s1 i1 e1 s2 i2 e2 d k =
    if i1 = e1 then Array.blit s2 i2 d k (e2 - i2)
    else if i2 = e2 then Array.blit s1 i1 d k (e1 - i1)
    else if cmp s1.(i1) s2.(i2) <= 0 then (d.(k) <- s1.(i1); merge s1 (i1 + 1) e1 s2 i2 e2 d (k + 1))
    else (d.(k) <- s2.(i2); merge s1 i1 e1 s2 (i2 + 1) e2 d (k + 1))
  in
  (* Sort [src.(s ..< s + len)] into [dst.(d ..< d + len)]. *)
  let rec sort_into src s dst d len =
    if len <= 6 then
      for i = 0 to len - 1 do
        let x = src.(s + i) and j = ref (d + i - 1) in
        while !j >= d && cmp dst.(!j) x > 0 do dst.(!j + 1) <- dst.(!j); decr j done;
        dst.(!j + 1) <- x
      done
    else begin
      let l1 = len / 2 in
      let l2 = len - l1 in
      sort_into src (s + l1) dst (d + l1) l2;
      sort_into src s src (s + l2) l1;
      merge src (s + l2) (s + len) dst (d + l1) (d + len) dst d
    end
  in
  if not (sorted 1) then begin
    let l1 = n / 2 in
    let l2 = n - l1 in
    let t = Array.make l2 0 in
    sort_into a l1 t 0 l2;
    sort_into a 0 a l2 l1;
    merge a l2 n t 0 l2 a 0
  end

let orders txns n ix =
  let ord = iota n in
  sort_ints (fun i j ->
      let a = txns.(i) and b = txns.(j) in
      if a.W.ts <> b.W.ts then Int.compare a.W.ts b.W.ts
      else if a.W.rank <> b.W.rank then Int.compare a.W.rank b.W.rank
      else Int.compare a.W.inv b.W.inv) ord;
  let sess = snd (Group.by ix.n_procs n (fun i -> ix.pid.(i))) in
  sort_ints (fun i j ->
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
    let grow a = let b = Array.make (Int.max 16 (2 * g.m)) 0 in Array.blit a 0 b 0 g.m; b in
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
  let resp = Array.make (Array.length st) 0 in
  Array.iteri (fun s t -> resp.(s) <- txns.(t).W.resp) st;
  let s = select (Array.length st) (fun s -> resp.(s) <> max_int) in
  sort_ints
    (fun a b -> if sg.(a) <> sg.(b) then Int.compare sg.(a) sg.(b) else Int.compare resp.(a) resp.(b))
    s;
  (* Chain position [q]'s group and response, flat for the searches. *)
  let k = Array.length s in
  let cg = Array.make k 0 and cr = Array.make k 0 in
  for q = 0 to k - 1 do cg.(q) <- sg.(s.(q)); cr.(q) <- resp.(s.(q)) done;
  let base = g.nodes in
  g.nodes <- base + k;
  for q = 0 to k - 1 do
    edge g rt st.(s.(q)) (base + q);
    if q > 0 && cg.(q - 1) = cg.(q) then edge g rt (base + q - 1) (base + q)
  done;
  Array.iteri
    (fun d grp ->
      let inv = txns.(dt.(d)).W.inv and lo = ref (-1) and hi = ref k in
      while !hi - !lo > 1 do
        let q = (!lo + !hi) / 2 in
        if cg.(q) < grp || (cg.(q) = grp && cr.(q) < inv) then lo := q else hi := q
      done;
      if !lo >= 0 && cg.(!lo) = grp then edge g rt (base + !lo) dt.(d))
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
  let last = Array.make ix.n_keys (-1) and seq = Array.make (Array.length ix.wkey) 0 and m = ref 0 in
  Array.iter
    (fun i ->
      for j = ix.woff.(i + 1) - 1 downto ix.woff.(i) do
        if last.(ix.wkey.(j)) <> i then (last.(ix.wkey.(j)) <- i; seq.(!m) <- j; incr m)
      done)
    ord;
  let first, by = group_by ix.n_keys ix.wkey (Array.sub seq 0 !m) in
  let same q = q > first.(ix.wkey.(by.(q))) && ix.wval.(by.(q - 1)) = ix.wval.(by.(q)) in
  let rec after q = if q + 1 < Array.length by && same (q + 1) then after (q + 1) else q + 1 in
  (* Open addressing over (key, value, position) triples, at most half full. *)
  let mask = (let c = ref 16 in while !c < 2 * Array.length by do c := 2 * !c done; !c - 1) in
  let at = Array.make (3 * (mask + 1)) (-1) in
  let rec slot k v h =
    if at.(3 * h) < 0 || (at.(3 * h) = k && at.(3 * h + 1) = v) then h
    else slot k v ((h + 1) land mask)
  in
  let slot k v = slot k v ((k * 65599 + v) land mask) in
  Array.iteri
    (fun q j ->
      let k = ix.wkey.(j) and v = ix.wval.(j) in
      if q > first.(k) then edge g ww wtxn.(by.(q - 1)) wtxn.(j);
      if not (same q) then (let h = slot k v in at.(3 * h) <- k; at.(3 * h + 1) <- v; at.(3 * h + 2) <- q))
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
            | Some v ->
              let h = slot k v in
              if at.(3 * h) < 0 then
                raise (Illegal (Fmt.str "legality: txn %d read %s=%d but no txn wrote it" i key v));
              let q = at.(3 * h + 2) in
              edge g rf wtxn.(by.(q)) i;
              after q
          in
          if q < first.(k + 1) && wtxn.(by.(q)) <> i then edge g rw i wtxn.(by.(q)))
        txns.(i).W.reads
  done;
  List.iter (fun (a, b) -> edge g msg a b) edges;
  let all = iota n in
  let muts = select n (fun i -> ix.woff.(i + 1) > ix.woff.(i)) in
  let one a = (Array.make (Array.length a) 0, a) in
  (match mode with
  | `Sequential -> ()
  | `Strict -> rt_chain g txns (one all) (one all)
  | `Rss ->
    rt_chain g txns (one muts) (one muts);
    rt_chain g txns (ix.wkey, wtxn) (ix.rkey, rtxn));
  g

let cycle g n (off, out) stuck =
  let ioff, into = Group.by g.nodes g.m (fun e -> g.dst.(e)) in
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
    let (off, out) as fwd = Group.by g.nodes g.m (fun e -> g.src.(e)) in
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
