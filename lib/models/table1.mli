(** Table I: the 16 representative convolution layers of the ablation
    studies (Figs. 10 and 11), reproduced verbatim from the paper.  These
    cover diverse shapes and strides out of the 148 distinct convolutions
    in the nine models. *)

val workloads : Unit_graph.Workload.conv2d array
(** Index 0 = the paper's workload #1 ... index 15 = #16. *)

val row : int -> (Unit_graph.Workload.conv2d, string) result
(** The paper's workload #[i] (1-based); [Error "table1 index i out of
    range 1..16"] otherwise. *)

val find : string -> (int * Unit_graph.Workload.conv2d, string) result option
(** Resolve a ["table1:N"] spec, as every command taking a model name
    accepts it: [Some (Ok (n, workload))], [Some (Error _)] for a
    malformed or out-of-range [N] (the {!row} text), and [None] for a
    string that is not a ["table1:"] spec at all. *)

val characteristics_rows : (string * (Unit_graph.Workload.conv2d -> int)) list
(** The table's rows (C, IHW, K, R=S, Stride, OHW) as accessors, for
    printing the table exactly as published. *)

val pp_table : Format.formatter -> unit -> unit
