open Unit_tir

type slot = {
  sl_buf : Buffer.t;
  sl_class : Ndarray.storage_class;
  sl_cell : int;
}

type layout = {
  l_slots : slot list;
  l_nf : int;
  l_ni : int;
  l_nl : int;
}

let layout (func : Lower.func) =
  let nf = ref 0 and ni = ref 0 and nl = ref 0 in
  let cells : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let slot ((_ : Unit_dsl.Tensor.t), (b : Buffer.t)) =
    let sl_class = Ndarray.class_of_dtype b.Buffer.dtype in
    let counter = match sl_class with Float_class -> nf | Int_class -> ni | Int64_class -> nl in
    if not (Hashtbl.mem cells b.Buffer.id) then begin
      Hashtbl.add cells b.Buffer.id !counter;
      incr counter
    end;
    { sl_buf = b; sl_class; sl_cell = Hashtbl.find cells b.Buffer.id }
  in
  let l_slots = List.map slot func.Lower.fn_tensors in
  { l_slots; l_nf = !nf; l_ni = !ni; l_nl = !nl }

let fill l resolved =
  let af = Array.make (Stdlib.max l.l_nf 1) [||] in
  let ai = Array.make (Stdlib.max l.l_ni 1) [||] in
  let al = Array.make (Stdlib.max l.l_nl 1) [||] in
  let offs = Array.make (Stdlib.max (List.length l.l_slots) 1) 0 in
  List.iteri
    (fun i (s, ((_ : Buffer.t), (arr : Ndarray.t))) ->
      offs.(i) <- arr.Ndarray.offset;
      match s.sl_class, arr.Ndarray.storage with
      | Float_class, Ndarray.Float_data a -> af.(s.sl_cell) <- a
      | Int_class, Ndarray.Int_data a -> ai.(s.sl_cell) <- a
      | Int64_class, Ndarray.Int64_data a -> al.(s.sl_cell) <- a
      | _ ->
        raise
          (Interp.Runtime_error
             (Printf.sprintf "buffer %s: storage kind mismatch" s.sl_buf.Buffer.name)))
    (List.combine l.l_slots resolved);
  (af, ai, al, offs)
