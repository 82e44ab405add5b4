open Unit_graph

(* C, IHW, K, R=S, stride — OHW follows with zero padding. *)
let raw =
  [| (288, 35, 384, 3, 2);
     (160, 9, 224, 3, 1);
     (1056, 7, 192, 1, 1);
     (80, 73, 192, 3, 1);
     (128, 16, 128, 3, 1);
     (192, 16, 192, 3, 1);
     (256, 16, 256, 3, 1);
     (1024, 14, 512, 1, 1);
     (128, 16, 160, 3, 1);
     (576, 14, 192, 1, 1);
     (96, 16, 128, 3, 1);
     (1024, 14, 256, 1, 1);
     (576, 14, 128, 1, 1);
     (64, 29, 96, 3, 1);
     (64, 56, 128, 1, 2);
     (608, 14, 192, 1, 1)
  |]

let workloads =
  Array.map
    (fun (c, ihw, k, kernel, stride) ->
      { Workload.c; h = ihw; w = ihw; k; kernel; stride; padding = 0; groups = 1 })
    raw

let row i =
  if i >= 1 && i <= Array.length workloads then Ok workloads.(i - 1)
  else
    Error
      (Printf.sprintf "table1 index %d out of range 1..%d" i (Array.length workloads))

let find spec =
  let prefix = "table1:" in
  if not (String.starts_with ~prefix spec) then None
  else
    let n = String.length prefix in
    Some
      (match int_of_string_opt (String.sub spec n (String.length spec - n)) with
       | Some i -> Result.map (fun wl -> (i, wl)) (row i)
       | None -> Error (spec ^ ": malformed table1:N index"))

let out_hw (wl : Workload.conv2d) =
  Graph.conv_out_dim ~size:wl.Workload.h ~kernel:wl.Workload.kernel
    ~stride:wl.Workload.stride ~padding:wl.Workload.padding

let characteristics_rows =
  [ ("C", fun (wl : Workload.conv2d) -> wl.Workload.c);
    ("IHW", fun wl -> wl.Workload.h);
    ("K", fun wl -> wl.Workload.k);
    ("R=S", fun wl -> wl.Workload.kernel);
    ("Stride", fun wl -> wl.Workload.stride);
    ("OHW", out_hw)
  ]

let pp_table fmt () =
  Format.fprintf fmt "@[<v>Table I: characteristics of the selected convolution layers@,";
  Format.fprintf fmt "%8s" "";
  Array.iteri (fun i _ -> Format.fprintf fmt "%6d" (i + 1)) workloads;
  Format.fprintf fmt "@,";
  List.iter
    (fun (label, accessor) ->
      Format.fprintf fmt "%8s" label;
      Array.iter (fun wl -> Format.fprintf fmt "%6d" (accessor wl)) workloads;
      Format.fprintf fmt "@,")
    characteristics_rows;
  Format.fprintf fmt "@]"
