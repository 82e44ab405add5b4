(* Order statistics over timing samples.  Quartiles follow Python's
   [statistics.quantiles(data, n=4)] (the "exclusive" method) exactly, so
   a spread computed here matches one computed from the printed values. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* Nearest-rank percentile. *)
let percentile xs p =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

(* The highest percentile of the ladder that still has at least ten
   samples beyond it — the tail a sample of this size supports. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  List.find_map
    (fun p -> if n *. (1.0 -. (p /. 100.0)) >= 10.0 then Some (p, percentile xs p) else None)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let geomean = function
  | [] -> 0.0
  | xs ->
    Float.exp
      (List.fold_left (fun acc x -> acc +. Float.log x) 0.0 xs
      /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0
