open Unit_graph

let all =
  [ ("resnet18", Resnet.resnet18);
    ("resnet34", Resnet.resnet34);
    ("resnet50", Resnet.resnet50);
    ("resnet50b", Resnet.resnet50_v1b);
    ("inception_v3", Inception.inception_v3);
    ("mobilenet1.0", fun () -> Mobilenet.mobilenet_v1 ());
    ("mobilenet_v2", Mobilenet.mobilenet_v2);
    ("squeezenet", Misc_models.squeezenet);
    ("vgg16", Misc_models.vgg16)
  ]

let names = List.map fst all
let find name = List.assoc_opt name all

let resolve spec =
  match Table1.find spec with
  | Some row -> Result.map (fun r -> `Table1 r) row
  | None ->
    (match find spec with
     | Some build -> Ok (`Model build)
     | None -> Error (spec ^ ": not a model (see unitc models) nor table1:N"))

let conv_workloads g =
  List.filter_map
    (fun (w, n) ->
      match w with
      | Workload.Conv wl when wl.Workload.groups = 1 -> Some (wl, n)
      | Workload.Conv _ | Workload.Conv3 _ | Workload.Fc _ -> None)
    (Workload.of_graph g)

let depthwise_workloads g =
  List.filter_map
    (fun (w, n) ->
      match w with
      | Workload.Conv wl when wl.Workload.groups > 1 -> Some (wl, n)
      | Workload.Conv _ | Workload.Conv3 _ | Workload.Fc _ -> None)
    (Workload.of_graph g)

let dense_workloads g =
  List.filter_map
    (fun (w, n) ->
      match w with
      | Workload.Fc wl -> Some (wl, n)
      | Workload.Conv _ | Workload.Conv3 _ -> None)
    (Workload.of_graph g)

let total_distinct_convs () =
  let table = Hashtbl.create 256 in
  List.iter
    (fun (_, build) ->
      List.iter
        (fun (wl, _) -> Hashtbl.replace table wl ())
        (conv_workloads (build ())))
    all;
  Hashtbl.length table
