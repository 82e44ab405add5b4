(* Tests for the model zoo: the graphs must build, have the published
   shapes/MAC counts, and expose the workloads the figures compile. *)

open Unit_graph
module Zoo = Unit_models.Zoo

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let total_conv_gmacs g =
  let all = Zoo.conv_workloads g @ Zoo.depthwise_workloads g in
  Float.of_int
    (List.fold_left
       (fun acc (wl, n) -> acc + (n * Workload.macs (Workload.Conv wl)))
       0 all)
  /. 1e9

let test_zoo_builds () =
  check_int "nine models" 9 (List.length Zoo.all);
  List.iter
    (fun (name, build) ->
      let g = build () in
      check_bool (name ^ " classifies to 1000") true
        (Graph.shape_of g (Graph.output g) = [ 1000 ]))
    Zoo.all

(* Published MAC counts (multiply-accumulates for one 224/299 image). *)
let test_mac_counts () =
  let expect name low high =
    let g = (Option.get (Zoo.find name)) () in
    let gmacs = total_conv_gmacs g in
    check_bool
      (Printf.sprintf "%s conv GMACs %.2f in [%.2f, %.2f]" name gmacs low high)
      true
      (gmacs >= low && gmacs <= high)
  in
  expect "resnet18" 1.6 2.0;
  expect "resnet34" 3.4 3.9;
  expect "resnet50" 3.6 4.2;
  expect "vgg16" 14.5 16.0;
  expect "mobilenet1.0" 0.5 0.65;
  expect "squeezenet" 0.25 0.45

let test_resnet50_variants_differ () =
  let a = (Option.get (Zoo.find "resnet50")) () in
  let b = (Option.get (Zoo.find "resnet50b")) () in
  let shapes g =
    List.map (fun (wl, _) -> wl) (Zoo.conv_workloads g)
  in
  check_bool "v1 and v1b have different conv shapes" true (shapes a <> shapes b)

let test_mobilenet_has_depthwise () =
  let g = (Option.get (Zoo.find "mobilenet1.0")) () in
  check_bool "depthwise workloads present" true (Zoo.depthwise_workloads g <> []);
  List.iter
    (fun (wl, _) ->
      check_bool "depthwise groups = channels" true (wl.Workload.groups = wl.Workload.c))
    (Zoo.depthwise_workloads g)

let test_distinct_convs_scale () =
  (* the paper counts 148 across the zoo; our square-kernel inception
     variant lands nearby *)
  let n = Zoo.total_distinct_convs () in
  check_bool (Printf.sprintf "distinct convs %d in [100, 160]" n) true
    (n >= 100 && n <= 160)

(* One resolver for "table1:N", one text per failure. *)
let test_table1_resolver () =
  let check_string = Alcotest.(check string) in
  let expect_error spec want =
    match Unit_models.Table1.find spec with
    | Some (Error m) -> check_string spec want m
    | Some (Ok _) -> Alcotest.failf "%s resolved" spec
    | None -> Alcotest.failf "%s not taken for a table1 spec" spec
  in
  (match Unit_models.Table1.find "table1:3" with
   | Some (Ok (i, wl)) ->
     check_int "index" 3 i;
     check_bool "row #3" true (wl = Unit_models.Table1.workloads.(2))
   | _ -> Alcotest.fail "table1:3 did not resolve");
  expect_error "table1:0" "table1 index 0 out of range 1..16";
  expect_error "table1:17" "table1 index 17 out of range 1..16";
  expect_error "table1:x" "table1:x: malformed table1:N index";
  check_bool "a model name is not a table1 spec" true
    (Unit_models.Table1.find "resnet18" = None);
  check_bool "bare table1 is not a row" true (Unit_models.Table1.find "table1" = None);
  (match Zoo.resolve "table1:17" with
   | Error m -> check_string "zoo resolver keeps the row text" "table1 index 17 out of range 1..16" m
   | Ok _ -> Alcotest.fail "table1:17 resolved");
  (match Zoo.resolve "nosuchnet" with
   | Error m ->
     check_string "unknown model" "nosuchnet: not a model (see unitc models) nor table1:N" m
   | Ok _ -> Alcotest.fail "nosuchnet resolved");
  check_bool "zoo model resolves" true
    (match Zoo.resolve "resnet18" with Ok (`Model _) -> true | _ -> false)

let test_table1_verbatim () =
  let w = Unit_models.Table1.workloads in
  check_int "16 workloads" 16 (Array.length w);
  (* spot-check the table's corners against the publication *)
  check_int "#1 C" 288 w.(0).Workload.c;
  check_int "#1 stride" 2 w.(0).Workload.stride;
  check_int "#3 C" 1056 w.(2).Workload.c;
  check_int "#4 IHW" 73 w.(3).Workload.h;
  check_int "#8 K" 512 w.(7).Workload.k;
  check_int "#15 stride" 2 w.(14).Workload.stride;
  check_int "#16 C" 608 w.(15).Workload.c;
  (* derived OHW row matches the published one *)
  let expected_ohw = [| 17; 7; 7; 71; 14; 14; 14; 14; 14; 14; 14; 14; 14; 27; 28; 14 |] in
  Array.iteri
    (fun i wl ->
      check_int
        (Printf.sprintf "#%d OHW" (i + 1))
        expected_ohw.(i)
        (Graph.conv_out_dim ~size:wl.Workload.h ~kernel:wl.Workload.kernel
           ~stride:wl.Workload.stride ~padding:wl.Workload.padding))
    w

let test_res3d () =
  let layers = Unit_models.Res3d.conv_workloads () in
  check_bool "ten-ish distinct conv3d layers" true (List.length layers >= 8);
  List.iter
    (fun (wl, _) ->
      check_bool "3d kernel is 1 or 3" true
        (wl.Workload.w3_kernel = 1 || wl.Workload.w3_kernel = 3))
    layers

let test_inception_grid_sizes () =
  let g = (Option.get (Zoo.find "inception_v3")) () in
  let hws =
    List.sort_uniq compare (List.map (fun (wl, _) -> wl.Workload.h) (Zoo.conv_workloads g))
  in
  (* the three inception grids (35, 17, 8) must appear among conv inputs *)
  List.iter
    (fun grid ->
      check_bool (Printf.sprintf "grid %d present" grid) true (List.mem grid hws))
    [ 35; 17; 8 ]

let () =
  Alcotest.run "models"
    [ ( "zoo",
        [ Alcotest.test_case "builds" `Quick test_zoo_builds;
          Alcotest.test_case "mac counts" `Quick test_mac_counts;
          Alcotest.test_case "resnet50 variants" `Quick test_resnet50_variants_differ;
          Alcotest.test_case "mobilenet depthwise" `Quick test_mobilenet_has_depthwise;
          Alcotest.test_case "distinct conv scale" `Quick test_distinct_convs_scale;
          Alcotest.test_case "inception grids" `Quick test_inception_grid_sizes
        ] );
      ( "table1",
        [ Alcotest.test_case "verbatim" `Quick test_table1_verbatim;
          Alcotest.test_case "resolver" `Quick test_table1_resolver ] );
      ( "res3d", [ Alcotest.test_case "layers" `Quick test_res3d ] )
    ]
