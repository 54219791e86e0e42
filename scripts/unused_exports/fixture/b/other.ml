let fresh () = Table.create ()
