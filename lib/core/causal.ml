type t = {
  n : int;
  reach : bool array array;
}

let of_edges ~n edges =
  let reach = Array.make_matrix n n false in
  let adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Causal.of_edges: node out of range";
      adj.(a) <- b :: adj.(a))
    edges;
  (* DFS from each node; O(n * E), fine for checker-sized histories. *)
  for src = 0 to n - 1 do
    let stack = ref adj.(src) in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | v :: rest ->
        stack := rest;
        if not reach.(src).(v) then begin
          reach.(src).(v) <- true;
          stack := adj.(v) @ !stack
        end
    done
  done;
  for i = 0 to n - 1 do
    if reach.(i).(i) then invalid_arg "Causal.of_edges: cycle detected"
  done;
  { n; reach }

let precedes t a b = t.reach.(a).(b)

let n t = t.n

let edges t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    for j = t.n - 1 downto 0 do
      if t.reach.(i).(j) then acc := (i, j) :: !acc
    done
  done;
  !acc
