(* Witness verification by sorting, not inserting: {!Witness.check}'s
   semantics over the order the system's timestamps claim, which a fixed
   order makes polynomial (Biswas–Enea). [add] only appends; [result] gives
   keys and processes dense ids in flat int arrays, sorts once by (ts, rank,
   inv, arrival), replays that order and meters how far arrival order
   strayed from it. Precondition: written values are unique per key. *)

module W = Witness

type verdict = Pass | Fail of string | Unknown of string

type settled = { verdict : verdict; work : int; max_displacement : int }

(* [txns] in arrival order, the first [n] live; [settled] until the next
   [add]. *)
type t = {
  mode : W.mode;
  mutable txns : W.txn array;
  mutable n : int;
  mutable settled : settled option;
}

let create ~mode () = { mode; txns = [||]; n = 0; settled = None }
let n_added t = t.n

let add t x =
  if t.n = Array.length t.txns then
    t.txns <- Array.init (max 8 (2 * t.n)) (fun i -> if i < t.n then t.txns.(i) else x);
  t.txns.(t.n) <- x;
  t.n <- t.n + 1;
  t.settled <- None

(* Txn [i]'s reads have key ids [rkey.(roff.(i))] up to
   [rkey.(roff.(i + 1) - 1)], in list order; its writes likewise, with
   their values in [wval]; its process has id [pid.(i)]. *)
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

exception Violation of string

let violation fmt = Fmt.kstr (fun m -> raise (Violation m)) fmt

(* Replay the claimed order, a txn's reads before its writes; reads of
   incomplete txns (resp = max_int) constrain nothing. *)
let check_legal txns ix ord =
  let latest = Array.make ix.n_keys (-1) and value = Array.make ix.n_keys 0 in
  let illegal i k key v =
    let now = if latest.(k) < 0 then "nil" else string_of_int value.(k) in
    match v with
    | None ->
      violation "legality: txn %d read %s=nil but txn %d wrote %s=%s before it" i key
        latest.(k) key now
    | Some v ->
      let w = ref (-1) and wrote j = ix.wkey.(j) = k && ix.wval.(j) = v in
      for i = 0 to Array.length ord - 1 do
        for j = ix.woff.(i) to ix.woff.(i + 1) - 1 do if wrote j then w := i done
      done;
      if !w < 0 then violation "legality: txn %d read %s=%d but no txn wrote it" i key v;
      violation "legality: txn %d read %s=%d from txn %d, but the order implies %s" i key
        v !w now
  in
  let rec reads i j = function
    | [] -> ()
    | (key, v) :: rest ->
      let k = ix.rkey.(j) in
      (match v with
      | None when latest.(k) < 0 -> ()
      | Some v when latest.(k) >= 0 && value.(k) = v -> ()
      | _ -> illegal i k key v);
      reads i (j + 1) rest
  in
  Array.iter
    (fun i ->
      if txns.(i).W.resp <> max_int then reads i ix.roff.(i) txns.(i).W.reads;
      for j = ix.woff.(i) to ix.woff.(i + 1) - 1 do
        latest.(ix.wkey.(j)) <- i;
        value.(ix.wkey.(j)) <- ix.wval.(j)
      done)
    ord

(* Scanning the claimed order, no counted txn (every one under [`Strict],
   mutators under [`Rss]) responds before an earlier-placed counted one
   was invoked. Then, under [`Rss], no writer of a key responds before an
   earlier-placed reader of it (incomplete ones too) was invoked. *)
let check_rt mode txns ix ord =
  let what = if mode = `Strict then "txn" else "mutator" and max_inv = ref min_int in
  Array.iter
    (fun i ->
      let x = txns.(i) in
      if mode = `Strict || x.W.writes <> [] then begin
        if x.W.resp < !max_inv then
          violation "real-time: %s %d (resp=%d) serialized after a %s invoked at %d"
            what i x.W.resp what !max_inv;
        max_inv := max !max_inv x.W.inv
      end)
    ord;
  if mode = `Rss then
    let max_reader_inv = Array.make ix.n_keys min_int in
    Array.iter
      (fun i ->
        let x = txns.(i) in
        for j = ix.woff.(i) to ix.woff.(i + 1) - 1 do
          let m = max_reader_inv.(ix.wkey.(j)) in
          if x.W.resp < m then
            violation
              "real-time: writer %d of %s (resp=%d) serialized after a reader \
               invoked at %d" i (fst (List.nth x.W.writes (j - ix.woff.(i)))) x.W.resp m
        done;
        for j = ix.roff.(i) to ix.roff.(i + 1) - 1 do
          max_reader_inv.(ix.rkey.(j)) <- max max_reader_inv.(ix.rkey.(j)) x.W.inv
        done)
      ord

(* [seq]'s members grouped by [group], in [seq]'s order within a group. *)
let group_by n_groups group seq =
  let next = Array.make (n_groups + 1) 0 and by = Array.make (Array.length seq) 0 in
  Array.iter (fun e -> next.(group.(e) + 1) <- next.(group.(e) + 1) + 1) seq;
  for g = 1 to n_groups do next.(g) <- next.(g) + next.(g - 1) done;
  Array.iter
    (fun e -> by.(next.(group.(e))) <- e; next.(group.(e)) <- next.(group.(e)) + 1) seq;
  by

let meter txns n ix ord sess =
  let size = 1 + max n (max (Array.length ix.rkey) (Array.length ix.wkey)) in
  let fen = Array.make size 0 and slot = Array.make size 0 and hi = Array.make size 0 in
  let work = ref 0 and max_d = ref 0 in
  (* Fenwick index [s + 1] counts slot [s]; [below s 0] sums slots < s. *)
  let rec below s acc = if s = 0 then acc else below (s land (s - 1)) (acc + fen.(s)) in
  let rec bump p = if p < size then (fen.(p) <- fen.(p) + 1; bump (p + (p land -p))) in
  (* [by] lists a family's members [0, count) group-major, sorted within a
     group ([same] tells whether two share one); members it leaves out are
     skipped. Inserted in index (arrival) order, each member displaces the
     inserted members after it in its group: none if [by] is in index order. *)
  let family count by same =
    let len = Array.length by and in_order = ref true in
    Array.fill slot 0 count (-1);
    for q = len - 1 downto 0 do
      slot.(by.(q)) <- q;
      let next = q + 1 < len && same by.(q) by.(q + 1) in
      hi.(by.(q)) <- (if next then hi.(by.(q + 1)) else q + 1);
      if next && by.(q) > by.(q + 1) then in_order := false
    done;
    if not !in_order then begin
      Array.fill fen 0 size 0;
      for e = 0 to count - 1 do
        if slot.(e) >= 0 then begin
          let d = below hi.(e) 0 - below (slot.(e) + 1) 0 in
          work := !work + d;
          max_d := max !max_d d;
          bump (slot.(e) + 1)
        end
      done
    end
  in
  (* Occurrences in claimed order, a txn naming a key twice listing its
     later copy first (as an insert before equal members did), by key. *)
  let per_key off key keep =
    let seq = Array.make (Array.length key) 0 and m = ref 0 in
    let put i = for j = off.(i + 1) - 1 downto off.(i) do seq.(!m) <- j; incr m done in
    Array.iter (fun i -> if keep i then put i) ord;
    let by = group_by ix.n_keys key (Array.sub seq 0 !m) in
    family (Array.length key) by (fun a b -> key.(a) = key.(b))
  in
  family n ord (fun _ _ -> true);
  family n sess (fun a b -> ix.pid.(a) = ix.pid.(b));
  per_key ix.woff ix.wkey (fun _ -> true);
  per_key ix.roff ix.rkey (fun i -> txns.(i).W.resp <> max_int);
  (!work, !max_d)

let settle t =
  match t.settled with
  | Some s -> s
  | None ->
    let txns = t.txns and n = t.n in
    let ix = index txns n in
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
    let pos = Array.make n 0 in
    Array.iteri (fun p i -> pos.(i) <- p) ord;
    (* Each process's txns in (inv, arrival) order. *)
    let sess = group_by ix.n_procs ix.pid (Array.init n Fun.id) in
    sort (fun i j ->
        if ix.pid.(i) <> ix.pid.(j) then Int.compare ix.pid.(i) ix.pid.(j)
        else Int.compare txns.(i).W.inv txns.(j).W.inv) sess;
    let verdict =
      match
        check_legal txns ix ord;
        for q = 1 to n - 1 do
          let a = sess.(q - 1) and b = sess.(q) in
          if ix.pid.(a) = ix.pid.(b) && pos.(a) > pos.(b) then
            violation "session order: process %d's txns %d and %d inverted"
              txns.(a).W.proc a b
        done;
        if t.mode <> `Sequential then check_rt t.mode txns ix ord
      with () -> Pass | exception Violation m -> Fail m
    in
    let work, max_displacement = meter txns n ix ord sess in
    let s = { verdict; work; max_displacement } in
    t.settled <- Some s;
    s

let result t = (settle t).verdict
let work t = (settle t).work
let max_displacement t = (settle t).max_displacement

let check ~mode txns =
  let t = create ~mode () in
  Array.iter (add t) txns;
  result t
