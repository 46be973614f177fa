(** The resolved call graph shared by the cross-module passes.

    One node per top-level function of every parsed [.ml] file, keyed
    [unit_key ^ ":" ^ fn_name] and numbered in facts order.  Every
    [(file, path)] pair is resolved once; {!Effects}, {!Hotpath},
    {!Units} and S4 in {!Sema} all read the same answers. *)

type node = {
  id : int;  (** position in {!nodes}, for per-pass state arrays *)
  key : string;  (** [unit_key ^ ":" ^ fn_name] *)
  unit_key : string;  (** e.g. ["lib/cache/sdc"] *)
  facts : Facts.t;  (** the defining file, for alias/open-aware resolution *)
  fn : Facts.fn;
}

type t

val build : dunes:(string * string) list -> Facts.t list -> t
(** [build ~dunes facts_list] numbers the functions in facts order and
    resolves paths with the {!Resolve.env} of the tree's dune files
    ([(rel, content)] pairs) and the files in [facts_list].  When two
    bindings share a key, the later one is the node's [fn]. *)

val nodes : t -> node array
(** Every node, in facts order. *)

val bindings : t -> (node * Facts.fn) list
(** Every top-level binding in facts order, paired with the node its key
    names.  A binding shadowed by a later one of the same key (a function
    of an inline submodule, say) still contributes its own body. *)

val label : node -> string
(** The display name of a node, e.g. ["Sdc.add_into"]. *)

val key : string -> string -> string
(** [key unit_key name] is the node key [unit_key ^ ":" ^ name]. *)

val unit_of_key : string -> string
(** The unit part of a key: everything before its first [':']. *)

val key_of : t -> Facts.t -> string list -> string option
(** [key_of g facts path] is the key [path], referenced from [facts],
    names: a single name is a same-unit key, a longer path resolves
    through {!Resolve.resolve}.  Memoized per [(file, path)].  The key
    need not be a node: it may name an [.mli]-only value, a constructor
    or a submodule. *)

val find : t -> Facts.t -> string list -> node option
(** The node {!key_of} names, when it is a scanned top-level function. *)

val node : t -> string -> node option
(** The node with the given key. *)
