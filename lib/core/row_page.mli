(** Pages of encoded rows: the one row format of a query reply.

    A page holds rows as they are stored — each row's order-preserving
    primary key ({!Key_codec}) and its value encoding ({!Row_codec}) —
    under the one schema that decodes them. Shards copy rows into a page
    straight out of their blocks, a router merges pages on key bytes
    and forwards the slices, and only the final reader decodes.

    The page's bytes are [data.[off .. off+len-1]] — a window, so a
    page read off the wire stays in the frame it arrived in. They are
    [count] entries, each a varint key length, the key, a varint value
    length and the value. Every reader below checks the framing as it
    walks — exactly [count] entries, keys long enough to carry a
    timestamp, nothing after the last — and raises
    {!Lt_util.Binio.Corrupt} where it is broken. *)

type t = { schema : Schema.t; count : int; data : string; off : int; len : int }

(** A page whose bytes are all of [data]. *)
val of_string : Schema.t -> count:int -> string -> t

(** Append one entry to a page under construction. *)
val add : Buffer.t -> key:string -> value:string -> unit

(** The page's entries in order as [(key, value)] pairs, under [into]
    (default: the page's own schema). Entries of a page under another
    schema are decoded, translated forward ({!Schema.translate_row}) and
    re-encoded, keys included; pages under [into] are sliced, never
    decoded. Single-consumer.
    @raise Schema.Invalid when [into] did not evolve from the page's
    schema (a page newer than [into] is refused up front). *)
val stream : ?into:Schema.t -> t -> string Cursor.stream

(** [collect schema ~cap src] builds a page under [schema] from at most
    [cap] rows of [src], and reports whether [src] had more. *)
val collect : Schema.t -> cap:int -> string Cursor.stream -> t * bool

(** Decode every row, in page order.
    @raise Lt_util.Binio.Corrupt on a malformed key or value. *)
val rows : t -> Value.t array list

(** Key-column values of the page's last row ([None] for an empty
    page): where a reader resumes (§3.5). *)
val last_key : t -> Value.t array option
