open Unit_dsl

type platform =
  | X86
  | Arm
  | Gpu

type cost = {
  latency : int;
  throughput : float;
  macs : int;
}

type t = {
  name : string;
  llvm_name : string;
  platform : platform;
  op : Op.t;
  cost : cost;
  digest : string;
}

exception Invalid_intrin of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_intrin s)) fmt

let validate t =
  let op = t.op in
  let accesses = Expr.accesses_of op.Op.body in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun ((tensor : Tensor.t), _) ->
      if Hashtbl.mem seen tensor.id then
        invalid "%s: register operand %s accessed more than once" t.name tensor.name;
      Hashtbl.add seen tensor.id ())
    accesses;
  if List.length op.Op.spatial > 3 then invalid "%s: more than 3 spatial axes" t.name;
  if List.length op.Op.reduce > 3 then invalid "%s: more than 3 reduce axes" t.name;
  let names = List.map (fun (a : Axis.t) -> a.name) (Op.all_axes op) in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid "%s: axis names must be unique" t.name;
  (match op.Op.init with
   | Op.Init_tensor _ | Op.In_place -> ()
   | Op.Zero ->
     invalid "%s: instruction must accumulate (init must not be Zero)" t.name);
  if t.cost.latency < 1 then invalid "%s: latency must be >= 1" t.name;
  if t.cost.throughput <= 0.0 then invalid "%s: throughput must be positive" t.name;
  if t.cost.macs < 1 then invalid "%s: macs must be >= 1" t.name

let output_lanes t =
  List.fold_left (fun acc (a : Axis.t) -> acc * a.extent) 1 t.op.Op.spatial

let reduction_width t =
  List.fold_left (fun acc (a : Axis.t) -> acc * a.extent) 1 t.op.Op.reduce

let axis_by_name t name =
  List.find_opt (fun (a : Axis.t) -> String.equal a.name name) (Op.all_axes t.op)

let tensor_by_name t name =
  List.find_opt
    (fun (tensor : Tensor.t) -> String.equal tensor.name name)
    (Op.inputs t.op @ [ t.op.Op.output ])

let platform_to_string = function X86 -> "x86" | Arm -> "arm" | Gpu -> "gpu"

let platform_of_string = function
  | "x86" -> Some X86
  | "arm" -> Some Arm
  | "gpu" -> Some Gpu
  | _ -> None

(* The canonical serialization underneath [semantic_digest].  Only
   name-level structure enters it — never [Tensor.id]/[Axis.id], which are
   process-global counters — so a description printed to a pack, parsed
   back and re-elaborated digests identically. *)
let canonical t =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let tensor (x : Tensor.t) =
    Printf.sprintf "%s:%s[%s]" x.Tensor.name
      (Unit_dtype.Dtype.to_string x.Tensor.dtype)
      (String.concat "x" (List.map string_of_int (Array.to_list x.Tensor.shape)))
  in
  let axis (a : Axis.t) = Printf.sprintf "%s:%d" a.Axis.name a.Axis.extent in
  add "uisa-digest-v1|%s|%s|%s|" t.name t.llvm_name (platform_to_string t.platform);
  add "lat=%d|tput=%h|macs=%d|" t.cost.latency t.cost.throughput t.cost.macs;
  let op = t.op in
  add "op=%s|out=%s|" op.Op.name (tensor op.Op.output);
  add "in=%s|" (String.concat ";" (List.map tensor (Op.inputs op)));
  add "sp=%s|" (String.concat ";" (List.map axis op.Op.spatial));
  add "rd=%s|" (String.concat ";" (List.map axis op.Op.reduce));
  (match op.Op.init with
   | Op.Zero -> add "init=zero|"
   | Op.In_place -> add "init=in_place|"
   | Op.Init_tensor c -> add "init=%s|" c.Tensor.name);
  add "body=%s" (Expr.to_string op.Op.body);
  Buffer.contents b

(* Digested once, when the value is built: store keys, registry and pack
   comparisons all read it. *)
let create ~name ~llvm_name ~platform ~cost op =
  let t = { name; llvm_name; platform; op; cost; digest = "" } in
  validate t;
  { t with digest = Digest.to_hex (Digest.string (canonical t)) }

let semantic_digest t = t.digest

let pp fmt t =
  Format.fprintf fmt "@[<v>%s (%s, %s)@,%a@]" t.name t.llvm_name
    (platform_to_string t.platform)
    Op.pp t.op
