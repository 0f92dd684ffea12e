(* Count each group, prefix-sum to the groups' ends, then place the
   members from the last one down: each group's end moves back to its
   start, and the group keeps ascending order. *)
let by n_groups n rank =
  let off = Array.make (n_groups + 1) 0 and by = Array.make n 0 in
  for i = 0 to n - 1 do
    let g = rank i in
    off.(g) <- off.(g) + 1
  done;
  for g = 1 to n_groups do off.(g) <- off.(g) + off.(g - 1) done;
  for i = n - 1 downto 0 do
    let g = rank i in
    off.(g) <- off.(g) - 1;
    by.(off.(g)) <- i
  done;
  (off, by)
