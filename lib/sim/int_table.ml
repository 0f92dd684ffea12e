(* Slots [0, cap) of [keys] and [used] form the table, [cap] a power of two
   (or 0 before the first binding). [vals] has one more slot: [vals.(cap)]
   keeps the value whose binding allocated the slots, and a freed slot is
   overwritten with it, so a removed value is not kept alive (that one value
   is, until the slots are reallocated or released) and no dummy ['a] is
   needed. *)
type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable used : Bytes.t;
  mutable size : int;
  mutable shift : int;  (* 63 - log2 cap: [home] keeps the top bits *)
}

let create () = { keys = [||]; vals = [||]; used = Bytes.empty; size = 0; shift = 63 }

let length t = t.size

(* 2^63 / golden ratio, odd: multiplying by it mixes every key bit into
   the high bits. *)
let golden = 0x4F1B_BCDC_BFA5_3E0B

let home t (k : int) = (k * golden) lsr t.shift

(* The slot bound to [k], or the empty slot where its probe run ends. Only
   called with [cap > 0]; the table is at most half full, so the run ends,
   and every index is masked to [0, cap), which makes the unchecked reads
   safe. *)
let[@inline] slot t (k : int) =
  let keys = t.keys and used = t.used in
  let mask = Array.length keys - 1 in
  let i = ref (home t k) in
  while Bytes.unsafe_get used !i <> '\000' && Array.unsafe_get keys !i <> k do
    i := (!i + 1) land mask
  done;
  !i

(* The slot bound to [k], or -1. *)
let[@inline] index t k =
  if t.size = 0 then -1
  else
    let i = slot t k in
    if Bytes.unsafe_get t.used i <> '\000' then i else -1

let mem t k = index t k >= 0

let find t k =
  let i = index t k in
  if i < 0 then raise_notrace Not_found else t.vals.(i)

let find_opt t k =
  let i = index t k in
  if i < 0 then None else Some t.vals.(i)

(* Bind [k], known to be unbound, in a table with room for it. *)
let add_fresh t k v =
  let i = slot t k in
  Bytes.set t.used i '\001';
  t.keys.(i) <- k;
  t.vals.(i) <- v;
  t.size <- t.size + 1

let resize t cap ~shift filler =
  let keys = t.keys and vals = t.vals and used = t.used in
  t.keys <- Array.make cap 0;
  t.vals <- Array.make (cap + 1) filler;
  t.used <- Bytes.make cap '\000';
  t.shift <- shift;
  t.size <- 0;
  for i = 0 to Array.length keys - 1 do
    if Bytes.get used i <> '\000' then add_fresh t keys.(i) vals.(i)
  done

let replace t k v =
  let i = index t k in
  if i >= 0 then t.vals.(i) <- v
  else begin
    let cap = Array.length t.keys in
    if cap = 0 then resize t 16 ~shift:59 v
    else if 2 * (t.size + 1) > cap then resize t (2 * cap) ~shift:(t.shift - 1) v;
    add_fresh t k v
  end

(* Backward-shift deletion: walk the probe run after the freed slot and
   move back every entry whose home does not lie in the cyclic interval
   (hole, j], i.e. every entry that the hole would otherwise cut off from
   its home. *)
let remove t k =
  let i = index t k in
  if i >= 0 then begin
    let keys = t.keys and vals = t.vals and used = t.used in
    let cap = Array.length keys in
    let mask = cap - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while Bytes.get used !j <> '\000' do
      let h = home t keys.(!j) in
      let stays = if !hole < !j then h > !hole && h <= !j else h > !hole || h <= !j in
      if not stays then begin
        keys.(!hole) <- keys.(!j);
        vals.(!hole) <- vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    Bytes.set used !hole '\000';
    vals.(!hole) <- vals.(cap);
    t.size <- t.size - 1
  end

(* A table of at most 16 slots is emptied in place, so one that is reset
   often does not reallocate its slots each time. *)
let reset t =
  let cap = Array.length t.keys in
  if cap > 16 then begin
    t.keys <- [||];
    t.vals <- [||];
    t.used <- Bytes.empty;
    t.shift <- 63
  end
  else if t.size > 0 then begin
    Bytes.fill t.used 0 cap '\000';
    Array.fill t.vals 0 cap t.vals.(cap)
  end;
  t.size <- 0

let fold f t init =
  let acc = ref init in
  for i = 0 to Array.length t.keys - 1 do
    if Bytes.get t.used i <> '\000' then acc := f t.keys.(i) t.vals.(i) !acc
  done;
  !acc
