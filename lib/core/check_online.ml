(* Witness verification by sorting, not inserting: legality, sessions and
   real time over the order the system's timestamps claim. [add] only
   appends; [result] gives keys and processes dense ids in flat int arrays
   ({!Check_graph.index}), sorts once by (ts, rank, inv, arrival), replays
   that order and meters how far arrival order strayed from it.
   Precondition: written values are unique per key. *)

module W = Witness
open Check_graph

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
  if t.n = Array.length t.txns then begin
    let a = Array.make (Int.max 8 (2 * t.n)) x in
    Array.blit t.txns 0 a 0 t.n;
    t.txns <- a
  end;
  t.txns.(t.n) <- x;
  t.n <- t.n + 1;
  t.settled <- None

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
  let strict = match mode with `Strict -> true | `Rss -> false in
  let what = if strict then "txn" else "mutator" and max_inv = ref min_int in
  Array.iter
    (fun i ->
      let x = txns.(i) in
      if strict || ix.woff.(i + 1) > ix.woff.(i) then begin
        if x.W.resp < !max_inv then
          violation "real-time: %s %d (resp=%d) serialized after a %s invoked at %d"
            what i x.W.resp what !max_inv;
        max_inv := Int.max !max_inv x.W.inv
      end)
    ord;
  if not strict then
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
          max_reader_inv.(ix.rkey.(j)) <- Int.max max_reader_inv.(ix.rkey.(j)) x.W.inv
        done)
      ord

let meter txns n ix ord sess =
  let size = 1 + Int.max n (Int.max (Array.length ix.rkey) (Array.length ix.wkey)) in
  let fen = Array.make size 0 and slot = Array.make size 0 and hi = Array.make size 0 in
  let work = ref 0 and max_d = ref 0 in
  (* Fenwick index [s + 1] counts slot [s]; [below s 0] sums slots < s. *)
  let rec below s acc = if s = 0 then acc else below (s land (s - 1)) (acc + fen.(s)) in
  let rec bump p = if p < size then (fen.(p) <- fen.(p) + 1; bump (p + (p land -p))) in
  (* [by] lists a family's members [0, count) group-major, sorted within a
     group ([same] tells whether two share one); members it leaves out are
     skipped. Inserted in index (arrival) order, each member displaces the
     inserted members after it in its group: none if the group is in index
     order, so only the members of out-of-order groups are counted. *)
  let family count by same =
    let len = Array.length by and bad = ref false and any = ref false in
    Array.fill slot 0 count (-1);
    for q = len - 1 downto -1 do
      let next = q >= 0 && q + 1 < len && same by.(q) by.(q + 1) in
      (* The group at [q + 1] is complete: skip it if it is in order. *)
      if (not next) && q + 1 < len then begin
        if !bad then any := true
        else for p = q + 1 to hi.(by.(q + 1)) - 1 do slot.(by.(p)) <- -1 done;
        bad := false
      end;
      if q >= 0 then begin
        let e = by.(q) in
        slot.(e) <- q;
        hi.(e) <- (if next then hi.(by.(q + 1)) else q + 1);
        if next && e > by.(q + 1) then bad := true
      end
    done;
    if !any then begin
      Array.fill fen 0 size 0;
      for e = 0 to count - 1 do
        if slot.(e) >= 0 then begin
          let d = below hi.(e) 0 - below (slot.(e) + 1) 0 in
          work := !work + d;
          max_d := Int.max !max_d d;
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
    let by = snd (group_by ix.n_keys key (Array.sub seq 0 !m)) in
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
    let ord, sess = orders txns n ix in
    let pos = Array.make n 0 in
    Array.iteri (fun p i -> pos.(i) <- p) ord;
    let verdict =
      match
        check_legal txns ix ord;
        for q = 1 to n - 1 do
          let a = sess.(q - 1) and b = sess.(q) in
          if ix.pid.(a) = ix.pid.(b) && pos.(a) > pos.(b) then
            violation "session order: process %d's txns %d and %d inverted"
              txns.(a).W.proc a b
        done;
        match t.mode with `Sequential -> () | (`Strict | `Rss) as mode -> check_rt mode txns ix ord
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
